"""Dense 30-digit values of weibull stretch integrals, for tests/test_core.py.

For each stretch (a, b] below, the log of the integral of
exp(la + slope (u - a)) against the weibull density over u in (a, b], by
mpmath at 30 digits on a dense split: 400 equal pieces, and geometric
pieces (halving 60 times) inside the first and the last of them, toward a
and b.  The pieces are narrower than every peak of these integrands, so
peaks inside a stretch are seen, unlike by the split toward the ends in
tests/test_cli.py.  Run from the repository root to rewrite the values:

    python tests/golden/weibull_dense.py
"""

import json
from pathlib import Path

import mpmath as mp

# (shape, scale, a, b, la, slope) and what sets the integrand's peak
STRETCHES = [
    (4.0, 1.0, 0.0, 20.0, -3.0, 30.0),  # first stretch, peak inside near u = 2
    (8.0, 1.0, 1.0, 3.9, -3.0, 200.0),  # stretch in u, narrow peak inside near u = 1.6
    (2.5, 0.5, 0.05, 10.0, -1.0, 12.0),  # mapped later stretch, peak inside near u = 0.9
    (0.5, 2.0, 0.3, 1.0, -2.0, -300.0),  # steep fall from a
    (0.7, 3.0, 5.0, 9.0, -4.0, 2.0),  # rise to b
]
PIECES, HALVINGS = 400, 60


def dense_log_integral(shape, scale, a, b, la, slope, pieces=PIECES, halvings=HALVINGS):
    with mp.workdps(30):
        shape, scale, a, b, la, slope = (mp.mpf(v) for v in (shape, scale, a, b, la, slope))

        def integrand(u):
            z = u / scale
            return shape / scale * z ** (shape - 1) * mp.exp(slope * (u - a) - z**shape)

        h = (b - a) / pieces
        pts = {a + i * h for i in range(pieces + 1)}
        pts |= {a + h / mp.mpf(2) ** i for i in range(1, halvings + 1)}
        pts |= {b - h / mp.mpf(2) ** i for i in range(1, halvings + 1)}
        return la + mp.log(mp.quad(integrand, sorted(pts)))


def main():
    rows = [{"shape": shape, "scale": scale, "a": a, "b": b, "la": la, "slope": slope,
             "log_integral": mp.nstr(dense_log_integral(shape, scale, a, b, la, slope), 30)}
            for shape, scale, a, b, la, slope in STRETCHES]
    out = Path(__file__).with_name("weibull-dense.json")
    out.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
