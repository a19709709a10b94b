"""Regenerate tests/data/ml_reference.csv, the frozen Mittag-Leffler oracle.

Reference values for E_{alpha,beta}(z) on z in [-50, 0] (500 points) for
alpha in {0.3, 0.5, 0.8}, beta in {alpha, 1}.  Two independent high-precision
routes: the power series summed in mpmath with enough working digits to absorb
its cancellation where that is feasible (< 120 digits), and tanh-sinh
quadrature of the real-line spectral representation otherwise.  The routes are
cross-checked against each other in the overlap region and against the erfc
closed form for alpha = 1/2 before anything is written.

Run from the repository root:  python tests/make_ml_reference.py
"""

import csv
import math
import pathlib

import mpmath as mp

LN10 = math.log(10.0)
ALPHAS = (0.3, 0.5, 0.8)
N_POINTS = 500
SERIES_DIGIT_LIMIT = 120.0


def ml_series(alpha: float, beta: float, z: float, extra_dps: int = 40):
    """Power series with working precision sized to the cancellation depth."""
    digits = 0.0 if z == 0.0 else abs(z) ** (1.0 / alpha) / LN10
    with mp.workdps(int(digits) + extra_dps):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        s = mp.mpf(0)
        k = 0
        while True:
            t = zz**k / mp.gamma(a * k + b)
            s += t
            if k > 3 and abs(t) < mp.mpf(10) ** (-mp.mp.dps + 2):
                break
            k += 1
            if k > 2_000_000:
                raise RuntimeError("series did not converge")
        return +s


def ml_quad(alpha: float, beta: float, z: float, dps: int = 50):
    """Spectral-integral route for beta in {alpha, 1}.

    The kernel below is that of those two beta only; at other beta it is
    wrong (by 1.1e-3 at alpha = 0.302, beta = 1.291, z = -10.2), so they
    are rejected.
    """
    if beta not in (alpha, 1.0):
        raise ValueError(f"ml_quad holds for beta = alpha or 1 only, got alpha={alpha!r}, beta={beta!r}")
    with mp.workdps(dps):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        s1 = mp.sinpi(1 - b)
        s2 = mp.sinpi(1 - b + a)
        c = mp.cospi(a)

        def kernel(r):
            return (
                (1 / (a * mp.pi))
                * r ** ((1 - b) / a)
                * mp.exp(-(r ** (1 / a)))
                * (r * s1 - zz * s2)
                / (r * r - 2 * r * zz * c + zz * zz)
            )

        return mp.quad(kernel, [0, abs(zz), mp.inf])


def reference(alpha: float, beta: float, z: float):
    if z == 0.0:
        with mp.workdps(40):
            return mp.rgamma(beta)
    digits = abs(z) ** (1.0 / alpha) / LN10
    if digits < SERIES_DIGIT_LIMIT:
        return ml_series(alpha, beta, z)
    return ml_quad(alpha, beta, z)


def cross_check() -> None:
    # route agreement where both are cheap
    for alpha in ALPHAS:
        for beta in (alpha, 1.0):
            for z in (-0.7, -2.0, -3.0):
                s = ml_series(alpha, beta, z)
                q = ml_quad(alpha, beta, z)
                assert abs(s - q) < 1e-21, (alpha, beta, z, float(abs(s - q)))
    # erfc identity covers the full range for alpha = 1/2
    with mp.workdps(50):
        for z in [-0.5, -5.0, -17.0, -33.0, -50.0]:
            x = -mp.mpf(z)
            exact = mp.exp(x * x) * mp.erfc(x)
            got = reference(0.5, 1.0, float(z))
            assert abs(got - exact) < 1e-25, (z, float(abs(got - exact)))
    print("cross-checks passed")


def main() -> None:
    cross_check()
    out = pathlib.Path(__file__).parent / "data" / "ml_reference.csv"
    out.parent.mkdir(exist_ok=True)
    zs = [(-50.0 * (N_POINTS - 1 - i)) / (N_POINTS - 1) for i in range(N_POINTS)]
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "z", "value", "method"])
        for alpha in ALPHAS:
            for beta in (alpha, 1.0):
                for z in zs:
                    digits = 0.0 if z == 0.0 else abs(z) ** (1.0 / alpha) / LN10
                    method = "series" if digits < SERIES_DIGIT_LIMIT else "quad"
                    val = reference(alpha, beta, z)
                    writer.writerow([repr(alpha), repr(beta), repr(z), mp.nstr(val, 17), method])
                print(f"alpha={alpha} beta={beta} done")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
