"""Fast tests of the benchmark itself (no latcert process is started).

    python3 -m pytest -q benchmarks
"""

import json
import os
import types

import checks
import run
import tracing
import workloads


def _certificate(bound="146880"):
    return json.dumps({"command": "certify-max", "bound": bound, "T": "(0,1/4)",
                       "valid": True, "failure": None})


def _fake_runner(outputs):
    """Answers each op with the next canned stdout, exit code 0."""
    it = iter(outputs)
    return lambda op: (0, next(it), "", 0.25, 0.2, 30.0)


def test_tampered_report_counts_in_fail_frac():
    op = workloads.Op("certify-max", ("certify-max",), lambda *r: checks.check_bound_certificate(
        "certify-max", "(0,1/4)", True, *r))
    wl = workloads.Workload({}, (), ((op, op, op, op),), 1)
    outputs = [_certificate(), _certificate("146881"), _certificate(), "not json"]
    _, setup_ops, units = run.measure(wl, 0, _fake_runner(outputs), lambda files: None)
    attempted, failed = run.tally(setup_ops, units)
    assert (attempted, len(failed)) == (4, 2)
    assert "bound" in failed[0].failure


def test_verify_check_rejects_a_changed_field_and_changed_bytes():
    rec = {
        "command": "verify", "count": checks.N,
        "distance_distribution": {str(t): a for t, a in checks.PAPER_A.items()},
        "histogram": {str(t): checks.N * a for t, a in checks.PAPER_A.items() if t != 1},
        "inner_products": ["-1", "-1/2", "-1/4", "0", "1/4", "1/2"],
        "design_strength": 7, "extra_vanishing_moments": [9, 10, 11],
        "invariant": True, "valid": True, "invariance_mode": "full",
        "points_checked": checks.N, "histogram_mode": "full",
        "moments": ["0"] * 7 + ["26438400/37", "0", "0", "0", "1"],
    }
    # every field right, but not the reference bytes
    assert "sha256" in checks.check_verify("full", checks.N, 0, json.dumps(rec), "")
    rec["design_strength"] = 6
    assert "design_strength" in checks.check_verify("full", checks.N, 0, json.dumps(rec), "")


def test_energy_check_is_exact_for_invlin_and_close_for_expt():
    def energy(spec, bound, precision=None):
        return json.dumps({
            "command": "energy", "potential": spec, "valid": True, "failure": None,
            "error_sign": "nonnegative", "partial_products_positive_definite": [True],
            "lower_bound": bound, "dual_form": bound, "precision_digits": precision,
        })

    assert checks.check_energy("invlin", None, 0, energy("invlin", "11158304688"), "") is None
    assert checks.check_energy("invlin", None, 0, energy("invlin", "11158304689"), "")
    good = "21912914860.05218174634782318679652123559"  # expt at 30 digits
    assert checks.check_energy("expt", 30, 0, energy("expt", good, 30), "") is None
    assert checks.check_energy("expt", 30, 0, energy("expt", "21912914860.0522", 30), "")


def test_self_time_of_nested_spans():
    # op 0..10 holds a 1..7, which holds b 2..4 and c 5..7
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 7.0, 10.0])
    rec = tracing.Recorder(clock=lambda: next(ticks))
    op = rec.begin("op")
    a = rec.begin("a")
    rec.end(rec.begin("b"))
    rec.end(rec.begin("c"))
    rec.end(a)
    rec.end(op)
    assert [(s.name, s.parent) for s in rec.spans] == [
        ("op", None), ("a", 0), ("b", 1), ("c", 1)]
    assert tracing.self_times(rec.spans) == [4.0, 2.0, 2.0, 2.0]
    assert tracing.summarise(rec.spans)["a"] == {"s": 2.0, "calls": 1, "pairs": 0}
    assert tracing.coverage(rec.spans) == 0.6
    assert tracing.union_length([(0, 2), (1, 3), (5, 9)], 0, 6) == 4


def test_instrument_patches_every_namespace_and_restores():
    lib = types.ModuleType("pkg.lib")
    exec("def work(x):\n    return x + 1\n", lib.__dict__)
    user = types.ModuleType("pkg.user")
    user.work = lib.work  # from .lib import work
    exec("def call(x):\n    return work(x) * 2\n", user.__dict__)
    original = lib.work
    rec = tracing.Recorder()
    restore = tracing.instrument(rec, [lib, user], [], {}, unwrapped=("pkg.user",))
    assert user.call(1) == 4
    assert [s.name for s in rec.spans] == ["lib.work"]
    restore()
    assert lib.work is original and user.work is original


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_workload(name, 7), workloads.make_workload(name, 7)
        assert a.files == b.files
        assert [op.argv for u in a.units for op in u] == [op.argv for u in b.units for op in u]
        c = workloads.make_workload(name, 8)
        if a.files:
            assert a.files != c.files
    certify = workloads.make_workload("certify", 7)
    assert sum(len(u) for u in certify.units) >= 100


def _code_words(lines):
    rows = [int(line[::-1], 2) for line in lines.split()]
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    return words


def test_generated_code_is_doubly_even_self_dual_extremal():
    for text in workloads.make_workload("verify-full", 3).files.values():
        words = _code_words(text)
        assert len(set(words)) == 1 << 16
        weights = [bin(w).count("1") for w in words[1:]]
        assert min(weights) == 8 and all(wt % 4 == 0 for wt in weights)


def test_declared_metrics_are_the_ones_reported():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [k for k, _ in run.END_TO_END]
    layer, _ = run.layer_metrics([], 0.2, 1e-6)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
