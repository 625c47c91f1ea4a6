"""The weibull law's segment integrals: an adaptive Gauss-Kronrod rule.

``segment_integrals`` here takes stretches (a, b], each under its own law,
and gives their log integrals as a float array: those of every weibull
history of a set of short forward passes at once
(``continuous._loop_paths``), or those of one law, a long history's
columns (``Weibull.segment_integrals``).  Each constant that a law sets below
(u_max, j, the mapped variable, the break points) is its stretch's own, and
a stretch's result does not depend on the others of its call.  The rule is
the 10-point Gauss and 21-point Kronrod pair of QUADPACK's qk21 (Kronrod 1965;
Piessens et al., QUADPACK, 1983), run in numpy.  Each round evaluates the
21 nodes of every open panel at once (``_panels``) and sums each panel in
log space from its largest node value, so mass deep in the density's tail,
where the density alone is below the smallest double, still counts.  A
panel is bisected for the next round while QUADPACK's error estimate
exceeds 1e-11 of its stretch's running total, until the stretch has 200
panels.  The bound holds per panel, so the summed estimate of a stretch
with n panels is below n 1e-11 of its integral (2e-9 at most), where
QUADPACK holds the sum itself to the tolerance.

Every stretch starts as one panel.  One whose panel fails the first round
starts over from the break points of ``_weibull_breaks``, if it has any,
and is bisected into two otherwise.  Only a failing one needs them: in u
the integrand is log-concave (shape >= 1) or log-convex, so a top narrower
than its panel is at the panel's largest node or next to it, and with each
panel shifted by its own largest node it shows up in the error estimate
rather than underflowing out of sight.

A stretch with a < b / 4 ("mapped"), the first one always, runs in
x = (u / b)^(shape / j) with j = max(3, ceil(shape)), where
f(u) du = j s_b x^(j - 1) exp(-s_b x^j) dx with s_b = (b / scale)^shape:
the density's u^(shape - 1) factor, whose derivatives blow up at 0, turns
into the smooth x^(j - 1).  The others stay in u, because their left end
(a / b)^(shape / j) would lose relative width as a comes close to b on a
long history.  Past u_max = scale 2^(1000 / shape) the density is below
exp(-2^1000) and vanishes against any mass before it, while
(u / scale)^shape soon leaves the float range: a stretch ends there, and
one that starts beyond it carries no mass.
"""

import math

import numpy as np

# The nonnegative Kronrod nodes on [-1, 1], outermost first, and their
# weights.  The Gauss nodes are every second one, from the second.
_KRONROD_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745727796, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _symmetric(half) -> np.ndarray:
    """A rule's weights at its 21 nodes in ascending order, from those at the
    nonnegative nodes, outermost first."""
    return np.array([*half[:-1], *half[::-1]])


# The 21 nodes on [0, 1], ascending, as a column: node i of a panel
# [lo, lo + width] sits at lo + width _GK_NODES[i], one panel per column.
# The rows of _GK_WEIGHTS, on [0, 1] too, give a panel's Kronrod sum and its
# Kronrod minus Gauss difference.
_GK_NODES = 0.5 + 0.5 * np.array([-x for x in _KRONROD_NODES[:-1]] + list(_KRONROD_NODES[::-1]))[:, None]
_GK_WEIGHTS = 0.5 * np.array([_symmetric(_KRONROD_WEIGHTS), _symmetric(_KRONROD_WEIGHTS) - _symmetric(
    [w for g in _GAUSS_WEIGHTS for w in (0.0, g)] + [0.0])])
# a panel is bisected while QUADPACK's error estimate exceeds this share of
# its stretch's running total, and a stretch stops at this many panels
_GK_REL_TOL = 1e-11
_GK_MAX_PANELS = 200
# log (u / scale)^shape at u_max = scale 2^(1000 / shape)
_LOG_POWER_MAX = 1000.0 * math.log(2.0)
# a stretch (a, b] with a below this share of b is integrated in the mapped variable
_MAPPED_BELOW = 0.25


def segment_integrals(laws, a, b, la, slope) -> np.ndarray:
    # laws: (shape, scale, count) of each run of consecutive stretches
    # under one law.  The rows of k: a, b (at most u_max), la, slope, the
    # constants of _weibull_log_integrand, then log(shape / scale), shape
    # and scale: every stretch has its own law
    k = np.empty((12, len(a)))
    k[:4] = a, b, la, slope
    consts = np.array([(s - 1.0, 1.0 / c, 1.0, s, 1.0, math.log(s / c), s, c) for s, c, _ in laws])
    k[4:] = consts.repeat([count for *_, count in laws], axis=0).T
    end = 0
    for shape, scale, count in laws:
        run, end, log_scale = k[1, end:end + count], end + count, math.log(scale)
        if count and shape * (math.log(run.max()) - log_scale) > _LOG_POWER_MAX:
            u_max = math.exp(log_scale + _LOG_POWER_MAX / shape)
            run[shape * (np.log(run) - log_scale) > _LOG_POWER_MAX] = u_max
    # the batch takes no stretch that is empty (as past u_max) or has no
    # likelihood at its start
    live = (k[0] < k[1]) & (k[2] > -math.inf)
    out = np.full(len(a), -math.inf)
    out[live] = _weibull_batch(k[:, live])
    return out


def _weibull_batch(k: np.ndarray) -> np.ndarray:
    """The weibull segment integrals of the stretches a < b in the columns
    of k (rows as in ``segment_integrals``), by the rule of the module
    docstring."""
    n = k.shape[1]
    mapped = k[0] < _MAPPED_BELOW * k[1]
    ends, columns = k[[0, 1, 3]], []  # (a, b, slope) of each stretch; the mapped ones' constants
    for i in np.flatnonzero(mapped).tolist():
        a, b, la, slope = k[:4, i].tolist()
        shape, scale = k[10:, i].tolist()
        j = max(3, math.ceil(shape))
        log_b = math.log(b) - math.log(scale)
        # slope (u - a) = slope b x^(j / shape) - slope a, and x runs from (a / b)^(shape / j) to 1
        columns.append((i, ((a / b) ** (shape / j), 1.0, la - slope * a + math.log(j) + shape * log_b,
                            slope * b, j - 1.0, 1.0, math.exp(shape * log_b), j, j / shape)))
    k[2] += k[9]
    for i, column in columns:
        k[:9, i] = column
    # rows 0 and 1 of k now hold the ends of each stretch's panel
    lo, width = k[0], k[1] - k[0]

    # the first round: one panel per stretch, in order
    log_panel, kronrod, error = _panels(lo, width, mapped, k)
    fail = error > _GK_REL_TOL * kronrod
    if not np.count_nonzero(fail):
        return log_panel

    # A failing stretch starts over from its break points or is bisected;
    # leaves counts a stretch's panels.  The running totals are kept over
    # exp(ref), the first estimates.
    ref, converged, leaves = log_panel, (~fail).astype(float), np.full(n, 2, dtype=np.intp)
    restart = []  # (stretch, left end, right end) of the panels of the stretches that start over
    for i in np.flatnonzero(fail).tolist():
        a, b, slope = ends[:, i].tolist()
        shape, scale = k[10:, i].tolist()
        points = _weibull_breaks(shape, scale, a, b, slope)
        if mapped[i] and points:
            # the break points carry over at their mapped places
            j = max(3, math.ceil(shape))
            points = sorted({x for x in ((p / b) ** (shape / j) for p in points) if lo[i] < x < 1.0})
        if points != []:
            fail[i] = False
            leaves[i] = 0 if points is None else len(points) + 1
            if points is not None:
                edges = [lo[i], *points, k[1, i]]
                restart += [(i, p, q) for p, q in zip(edges, edges[1:])]
    row = np.arange(n)
    while True:
        width = np.repeat(0.5 * width[fail], 2)
        lo = np.repeat(lo[fail], 2)
        lo[1::2] += width[1::2]
        row = np.repeat(row[fail], 2)
        if restart:
            stretch, left, right = np.array(restart).T
            row = np.concatenate((row, stretch.astype(np.intp)))
            lo, width = np.concatenate((lo, left)), np.concatenate((width, right - left))
            restart = []
        if not len(row):
            break
        log_panel, kronrod, error = _panels(lo, width, mapped[row], k[:, row])
        excess = log_panel - ref[row]
        big = excess > 600.0
        if np.count_nonzero(big):
            # a panel far above its stretch's first estimate: shift the
            # stretch's running total to its largest such panel, and leave
            # the other stretches alone
            old = ref
            ref = ref.copy()
            np.maximum.at(ref, row[big], log_panel[big])
            converged *= np.exp(old - ref)
            excess = log_panel - ref[row]
        # a panel fails when its error estimate exceeds 1e-11 of its
        # stretch's running total
        share = np.exp(excess)
        total = converged + np.bincount(row, share, minlength=n)
        fail = error * share > _GK_REL_TOL * kronrod * total[row]
        if np.count_nonzero(fail):
            # a stretch stops at _GK_MAX_PANELS panels
            extra = np.bincount(row[fail], minlength=n)
            fail &= (leaves + extra <= _GK_MAX_PANELS)[row]
            leaves += np.bincount(row[fail], minlength=n)
        done = ~fail
        converged += np.bincount(row[done], share[done], minlength=n)
    live = converged > 0.0
    out = np.full(n, -math.inf)
    out[live] = ref[live] + np.log(converged[live])
    return out


def _panels(lo, width, mapped, k):
    """Log values, Kronrod sums K and QUADPACK's qk21 error estimates of the
    panels [lo, lo + width], one per column of k (row 0 the D and rows 2 to
    8 the constants of ``_weibull_log_integrand``); K and the estimates are
    per unit width and over a panel's largest node value.

    The estimate is spread * min(1, (200 |K - G| / spread)^1.5), with G the
    Gauss sum and spread the Kronrod sum of the node values' distance from K.
    The sums run node by node in the same order for every panel, so that a
    panel's results do not depend on the other panels of the batch (those of
    BLAS and of numpy's pairwise sums would)."""
    offset = _GK_NODES * width
    offset += lo - k[0]
    values = _weibull_log_integrand(offset + k[0], offset, mapped, k)
    top = values.max(axis=0)
    values -= top
    np.exp(values, out=values)
    kronrod, diff = np.add.accumulate(_GK_WEIGHTS[:, :, None] * values, axis=1)[:, -1]
    log_panel = np.log(kronrod * width)
    log_panel += top
    values -= kronrod
    np.abs(values, out=values)
    values *= _GK_WEIGHTS[0, :, None]
    spread = np.add.accumulate(values)[-1]
    ratio = np.minimum(200.0 * np.abs(diff), spread)
    ratio /= np.maximum(spread, 1e-300)
    return log_panel, kronrod, spread * ratio * np.sqrt(ratio)


def _column_power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base ** exponent for a contiguous base and one exponent per column.

    numpy rounds a power differently in its vector loop, taken for
    contiguous operands of one shape, than in the loops it takes for a
    broadcast exponent, and which loop a broadcast takes depends on the
    number of columns.  With the exponent spread to the base's shape, a
    panel's values do not depend on the other panels of its batch."""
    spread = np.empty_like(base)
    spread[:] = exponent
    return np.power(base, spread, out=spread)


def _weibull_log_integrand(x, offset, mapped, k):
    """The log integrand A + B (x - D) + C log(x E) - F (x E)^Q at the nodes x
    of a round, one panel per column, with B x^M in place of B (x - D) in the
    panels the boolean mask ``mapped`` marks.  offset holds x - D, and
    becomes the result; rows 2 to 8 of k are A, B, C, E, F, Q and M of each
    panel."""
    a, b, c, e, f, q, m = k[2:9]
    t = offset
    if np.count_nonzero(mapped):
        t[:, mapped] = _column_power(np.ascontiguousarray(x[:, mapped]), m[mapped])
    t *= b
    t += a
    z = x * e
    log_z = np.log(z)
    log_z *= c
    t += log_z
    z = _column_power(z, q)
    z *= f
    t -= z
    return t


def _weibull_breaks(shape: float, scale: float, a: float, b: float, slope: float):
    """Break points in (a, b) that keep the narrow tops of the log integrand
    in view, ascending; None where the stretch holds no mass on the float grid.

    The log integrand is concave for shape > 1 and convex otherwise: its
    local maxima ("tops") are the ends it falls from, or one inner point,
    bisected for, if it rises and then falls.  A top far narrower than the
    stretch can fall between all the nodes of a panel; break points on a
    geometric ladder out of it keep it in view.  Near a = 0 the
    u^(shape - 1) factor does not set the width: the first stretch is
    integrated in a variable without it.
    """

    def log_f(u: float) -> float:
        z = u / scale
        return slope * (u - a) + (shape - 1.0) * math.log(z) - z**shape

    def rise(u: float) -> float:
        """The slope of log_f at u."""
        return slope + (shape - 1.0) / u - shape / scale * (u / scale) ** (shape - 1.0)

    def width(u: float) -> float:
        """About the distance over which log_f falls by 1 from u."""
        bend = (shape - 1.0) * (u**-2 + shape / scale**2 * (u / scale) ** (shape - 2.0))
        return 1.0 / max(abs(rise(u)), math.sqrt(abs(bend)), 1e-300)

    lo, hi = a if a > 0.0 else b * 1e-12, b
    if a == 0.0 and shape > 1.0:
        # the mode can lie below b * 1e-12 when b is far out: step down past
        # it, so that the bisection below finds it
        while rise(lo) < 0.0 and lo > 1e-300:
            lo *= 1e-3
    r_lo, r_hi = rise(lo), rise(hi)
    tops = [(hi, width(hi))] if r_hi > 0.0 else []
    if r_lo < 0.0:
        if a > 0.0 and not tops and math.ulp(a) * -r_lo > 745.0:
            # log_f falls past the float range within one float step of a,
            # so no switch time of (a, b] carries mass
            return None
        tops.append((lo, width(lo) if a > 0.0 else 1.0 / max(1.0 / scale, -slope)))
    elif shape > 1.0 and r_hi < 0.0:
        mid = 0.5 * (lo + hi)
        while (hi - lo) * max(r_lo, -r_hi) >= 1.0 and lo < mid < hi:
            r = rise(mid)
            lo, r_lo, hi, r_hi = (mid, r, hi, r_hi) if r > 0.0 else (lo, r_lo, mid, r)
            mid = 0.5 * (lo + hi)
        tops.append((mid, width(mid)))
    if not tops:
        return []
    peak = max(log_f(u) for u, _ in tops)
    points = set()
    for top, w in tops:
        for sign in (-1.0, 1.0):
            d = 16.0 * w
            while a < top + sign * d < b:
                points.add(top + sign * d)
                if log_f(top + sign * d) < peak - 64.0:
                    break
                d *= 4.0
    return sorted(points)
