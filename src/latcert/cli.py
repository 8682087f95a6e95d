"""Command-line front end: build shells, verify their spherical-code
properties, and emit bound / energy certificates.

JSON is the machine interface (sorted keys, exact rationals as strings);
text reports are rendered from the same record.  Exit status is 0 when every
requested check is valid, 1 on a failed verification or a failed internal
check, 2 on usage errors.  Each command imports only the modules it uses:
the shell modules (and numpy) load only in the commands that build or read
a shell, ``lpcert`` only in ``certify-max``, ``certify-design`` and
``selftest``, and mpmath (through ``energycert``) only for a transcendental
potential.

The CLI runs OpenBLAS on one thread, whatever the environment says: more
threads only spin, for about 0.1 s of CPU from numpy's import on and then
through the bincounts between the pair passes' small products, and only a
setting made before numpy loads stops them.  The products are exact on any
number of threads; code that imports the library modules keeps its own
BLAS settings.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

# before any command loads numpy (see the module docstring)
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _load_code(source: str):
    from . import gf2codes
    if source == "rm2_5":
        return gf2codes.reed_muller_2_5()
    if source == "xqr32":
        return gf2codes.extended_quadratic_residue_32()
    if not os.path.exists(source):
        raise ValueError(f"code source {source!r} is neither a builtin nor a file")
    return gf2codes.load_generator_matrix(source)


def _load_poly(source: str):
    if source.startswith("builtin:"):
        from .lpcert import builtin_polynomial
        return builtin_polynomial(source.split(":", 1)[1])
    if not os.path.exists(source):
        raise ValueError(f"polynomial source {source!r} is neither builtin nor a file")
    from .exactmath import poly_from_json
    with open(source) as fh:
        return poly_from_json(json.load(fh))


def _emit(record: dict, fmt_kind: str) -> int:
    """Print the record; the exit status, 0 when it is valid, else 1."""
    if fmt_kind == "json":
        print(json.dumps(record, sort_keys=True, indent=2))
    else:
        _emit_text(record)
    return 0 if record["valid"] else 1


def _emit_text(record: dict, indent: str = "") -> None:
    for key in sorted(record):
        val = record[key]
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{indent}{key}:")
            for item in val:
                _emit_text(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {val}")


def cmd_build(args) -> int:
    from . import lattice32
    code = _load_code(args.code)
    if not os.path.exists(os.path.dirname(args.out) or "."):  # open()'s error, before the build
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    record = {"command": "build", "code": args.code}
    try:
        shell = lattice32.build_shell(code)  # checks the code once
    except lattice32.CodeRejected as exc:
        return _emit({**record, "valid": False, "failure": str(exc)}, args.format)
    lattice32.save_shell(shell, args.out)
    return _emit({**record, "count": shell.count, "out": args.out, "valid": True}, args.format)


def _by_t(counts: dict) -> dict:
    """A count per inner product t as JSON: keyed by str(t), in order of t."""
    return {str(t): c for t, c in sorted(counts.items())}


def cmd_verify(args) -> int:
    from . import lattice32, sphercode
    from .gegenbauer import MAX_DEGREE, histogram_from_distribution
    if args.full and (args.sample, args.seed) != (None, None):
        raise ValueError("--full checks every point: --sample and --seed do not apply")
    sample = 1000 if args.sample is None else args.sample
    seed = 0 if args.seed is None else args.seed
    for flag, value, least in (("--sample", sample, 1), ("--seed", seed, 0),
                               ("--cap", args.cap, 1)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    if args.cap > MAX_DEGREE:
        raise ValueError(f"--cap must be at most {MAX_DEGREE}, got {args.cap}")
    shell = lattice32.load_shell(args.shell)
    mode = sphercode.ALL if args.full else sample
    inv = sphercode.check_distance_invariance(shell, sample=mode, seed=seed)
    if args.full:
        # exact global pair counts, from the same pass
        hist = inv.histogram
        hist_mode = "full"
    elif inv.invariant:
        # exact under the (sampled) distance-invariance evidence
        hist = histogram_from_distribution(inv.distribution, shell.count)
        hist_mode = "extrapolated-from-sample"
    else:
        hist = None
        hist_mode = "unavailable"
    strength = (
        sphercode.design_strength(shell, cap=args.cap, hist=hist) if hist else None
    )
    record = {
        "command": "verify",
        "count": shell.count,
        "histogram_mode": hist_mode,
        "inner_products": [str(t) for t in sorted(hist.counts)] if hist else None,
        "histogram": _by_t(hist.counts) if hist else None,
        "distance_distribution": _by_t(inv.distribution.a) if inv.distribution else None,
        "invariant": inv.invariant,
        "invariance_mode": inv.mode,
        "points_checked": inv.checked,
        "moments": [str(m) for m in strength.moments.values] if strength else None,
        "design_strength": strength.tau if strength else None,
        "extra_vanishing_moments": list(strength.extra_vanishing) if strength else None,
        "valid": inv.invariant,
    }
    if inv.counterexample:
        (i, di), (j, dj) = inv.counterexample
        record["counterexample"] = {
            "points": [i, j],
            "distributions": [_by_t(di.a), _by_t(dj.a)],
        }
    return _emit(record, args.format)


def cmd_certify_max(args) -> int:
    from . import lpcert
    from .exactmath import parse_region, rat
    poly = _load_poly(args.poly)
    cert = lpcert.certify_max_code(
        poly, args.dim, parse_region(args.T), rat(args.s), args.strength
    )
    return _emit({"command": "certify-max", **cert.to_json_dict()}, args.format)


def cmd_certify_design(args) -> int:
    from . import lpcert
    from .exactmath import parse_region
    poly = _load_poly(args.poly)
    cert = lpcert.certify_min_design(poly, args.dim, parse_region(args.T), args.tau)
    return _emit({"command": "certify-design", **cert.to_json_dict()}, args.format)


def cmd_energy(args) -> int:
    from . import energycert
    h = energycert.potential_by_spec(args.potential)
    precision = {} if args.precision is None else {"precision": args.precision}
    if precision and h.exact_on_rationals:
        raise ValueError(f"--precision applies only to expt, gauss and odd riesz, not {h.name}")
    cert = energycert.energy_lower_bound(h, **precision)
    if args.shell:
        from . import lattice32, sphercode
        shell = lattice32.load_shell(args.shell)
        cert = cert.on_shell(h, shell.dim, sphercode.histogram(shell))
    return _emit({"command": "energy", **cert.to_json_dict()}, args.format)


def cmd_venkov(args) -> int:
    from . import lattice32
    if args.sample < 0:
        raise ValueError(f"--sample must be at least 1, got {args.sample}")
    if args.seed < 0:  # random.Random(-1) draws the sample of seed 1
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    if not (args.witness or args.sample):
        raise ValueError("nothing to check: give --witness or --sample of at least 1")
    shell = lattice32.load_shell(args.shell)
    record = {"command": "venkov"}
    ok = True
    if args.witness:
        x, z = lattice32.witness_pair()
        e22 = lattice32.venkov_e22(shell, x, z)
        record["witness_e22"] = e22
        ok = ok and e22 == lattice32.WITNESS_E22
    if args.sample:
        values = lattice32.venkov_sample(shell, args.sample, args.seed)
        record["sampled_e22"] = values
        record["seed"] = args.seed
        ok = ok and lattice32.sampled_e22_ok(values)
    record["valid"] = ok
    return _emit(record, args.format)


def cmd_selftest(args) -> int:
    from fractions import Fraction

    from . import energycert, gf2codes, lattice32, lpcert, sphercode
    from .gegenbauer import gegenbauer_expand
    results = []

    def check(name, fn):
        try:
            passed = bool(fn())
            detail = None
        except Exception as exc:  # a fixture crash is a failure, not an abort
            passed = False
            detail = str(exc)
        results.append((name, passed, detail))
        line = "PASS" if passed else "FAIL"
        print(f"[{line}] {name}" + (f" ({detail})" if detail else ""))

    b41, b51, bp7 = lpcert.MAX_CODE_POLY, lpcert.MIN_DESIGN_POLY, lpcert.P7_POLY
    check("max-code polynomial f(1) = 675/1024",
          lambda: b41(Fraction(1)) == Fraction(675, 1024))
    check("max-code expansion matches the 11 reference coefficients",
          lambda: gegenbauer_expand(32, b41.expand()).coeffs
          == lpcert.MAX_CODE_EXPANSION)
    check("min-design polynomial f(1) = 135/64",
          lambda: b51(Fraction(1)) == Fraction(135, 64))
    check("min-design f_0 = 1/69632",
          lambda: gegenbauer_expand(32, b51.expand()).coeffs[0]
          == Fraction(1, 69632))
    check("partial product P_7 expansion matches the 8 reference coefficients",
          lambda: gegenbauer_expand(32, bp7.expand()).coeffs
          == lpcert.P7_EXPANSION)
    check("max-code certificate: valid with bound 146880",
          lambda: (lambda c: c.valid and c.bound == 146880)(
              lpcert.certify_max_code(
                  b41, 32, lpcert.MAX_CODE_T, Fraction(1, 2), 3)))
    check("min-design certificate: valid with bound 146880",
          lambda: (lambda c: c.valid and c.bound == 146880)(
              lpcert.certify_min_design(
                  b51, 32, lpcert.MIN_DESIGN_T, 7)))
    check("design distribution recovered as {1,1240,31744,80910,31744,1240,1}",
          lambda: sorted(energycert.design_distribution().a.values())
          == [1, 1, 1240, 1240, 31744, 31744, 80910])

    codes = [gf2codes.reed_muller_2_5(), gf2codes.extended_quadratic_residue_32()]
    for code in codes:
        rep = gf2codes.code_report(code)
        check(f"{code.name}: [32,16,8] doubly-even self-dual",
              lambda rep=rep: rep.self_dual and rep.doubly_even
              and rep.min_distance == 8)

    shells = {}
    for code in codes:
        shell = lattice32.build_shell(code)
        shells[code.name] = shell
        check(f"{code.name}: shell has 146880 vectors",
              lambda shell=shell: shell.count == 146880)
        check(f"{code.name}: norm-2 layer empty",
              lambda code=code: lattice32.check_extremal(code))
        x, z = lattice32.witness_pair()
        check(f"{code.name}: witness Venkov pair e_2,2 = 60",
              lambda shell=shell, x=x, z=z:
              lattice32.venkov_e22(shell, x, z) == lattice32.WITNESS_E22)
        vals = lattice32.venkov_sample(shell, 100, 1)
        check(f"{code.name}: 100 sampled e_2,2 values even in [0,60]",
              lambda vals=vals: lattice32.sampled_e22_ok(vals))

    shell = shells["rm2_5"]
    hist = sphercode.histogram(shell)
    support = {Fraction(v, 4) for v in (-4, -2, -1, 0, 1, 2)}
    check("rm2_5: inner products exactly {-1,-1/2,-1/4,0,1/4,1/2}",
          lambda: set(hist.counts) == support)
    dist = sphercode.distance_distribution_at(shell, shell.half[0])
    expected = {Fraction(-1): 1, Fraction(-1, 2): 1240, Fraction(-1, 4): 31744,
                Fraction(0): 80910, Fraction(1, 4): 31744, Fraction(1, 2): 1240,
                Fraction(1): 1}
    check("rm2_5: distance distribution at a point matches", lambda: dist.a == expected)
    strength = sphercode.design_strength(shell, cap=12, hist=hist)
    check("rm2_5: design strength 7 1/2 (tau = 7, M_10 = 0, M_8 != 0)",
          lambda: strength.tau == 7 and 10 in strength.extra_vanishing
          and strength.moments[8] != 0)
    inv = sphercode.check_distance_invariance(shell, sample=1000, seed=7)
    check("rm2_5: 1000-point sampled distance invariance", lambda: inv.invariant)
    h = energycert.invlin()
    cert = energycert.energy_lower_bound(h)
    energy = energycert.code_energy(hist, h)
    check("invlin energy certificate valid", lambda: cert.valid)
    check("invlin energy attained exactly on the shell",
          lambda: energy == cert.lower_bound)
    check("invlin quadrature form equals dual form exactly",
          lambda: cert.lower_bound == cert.dual_bound)

    failed = [name for name, ok, _ in results if not ok]
    print(f"\n{len(results) - len(failed)}/{len(results)} fixtures passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latcert",
        description="Exact certificates for the 146880-point spherical codes "
        "of extremal even unimodular 32-dimensional lattices.",
    )
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the norm-4 shell of a code's lattice")
    p.add_argument("--code", required=True, help="rm2_5 | xqr32 | generator file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="full spherical-code report for a shell")
    p.add_argument("--shell", required=True)
    p.add_argument("--sample", type=int,
                   help="points for the sampled invariance check (default 1000)")
    p.add_argument("--full", action="store_true",
                   help="gated full per-point invariance pass")
    p.add_argument("--seed", type=int, help="sample seed (default 0)")
    p.add_argument("--cap", type=int, default=12, help="moment scan cap")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("certify-max", help="maximal T-avoiding code bound")
    p.add_argument("--poly", required=True, help="builtin:<name> or JSON file")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--T", default="empty")
    p.add_argument("--s", required=True, help="maximal inner product, e.g. 1/2")
    p.add_argument("--strength", type=int, required=True)
    p.set_defaults(fn=cmd_certify_max)

    p = sub.add_parser("certify-design", help="tight T-avoiding design bound")
    p.add_argument("--poly", required=True)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--T", default="empty")
    p.add_argument("--tau", type=int, required=True)
    p.set_defaults(fn=cmd_certify_design)

    p = sub.add_parser("energy", help="energy lower-bound certificate")
    p.add_argument("--shell", help="also compute the shell's exact energy and gap")
    p.add_argument("--potential", required=True,
                   help="invlin | expt | riesz:<s> | gauss:<alpha>")
    p.add_argument("--precision", type=int)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("venkov", help="Venkov e_2,2 statistics")
    p.add_argument("--shell", required=True)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_venkov)

    p = sub.add_parser("selftest", help="run the built-in regression fixtures")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an integrity guard inside the package
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
