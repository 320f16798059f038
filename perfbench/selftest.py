"""Self-test of the benchmark: generators hit their targets, every checker
accepts the program's real outputs and rejects corrupted ones, and each
workload runs as a short smoke test that prints every metric BENCHMARK.json
names.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402
from curvgraph import petrov, symcore  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def rejects(verdict) -> bool:
    return not verdict.ok


def test_reference_math() -> None:
    """The checkers' own contractions agree with the program's on seeded
    tensors, so the conventions match before either is trusted."""
    worst = 0.0
    for seed in range(20):
        R = symcore.random_riemann(seed)
        worst = max(
            worst,
            float(np.abs(checks.omega_of(R.matrix) - petrov.omega(R)).max()),
            float(np.abs(checks.ricci_of(R.matrix) - symcore.ricci_matrix(R)).max()),
            abs(checks.cyclic_of(R.matrix) - symcore.cyclic_sum(R, (0, 1, 2, 3))),
        )
    expect(worst <= 1e-14, f"checker omega/ricci/cyclic match the program (worst {worst:.2g})")


def test_generators() -> None:
    a = gen.generic_items(7, 4)
    b = gen.generic_items(7, 4)
    expect([i.text for i in a] == [i.text for i in b], "same seed gives the same documents")
    expect(a[0].text != gen.generic_items(8, 1)[0].text, "another seed gives other documents")
    items = gen.special_items(3, 10)
    expect(sorted({i.expected_type for i in items}) == sorted(gen.FIXTURES),
           "special pool covers D, II, N, III and O")
    for item in items:
        W = item.omega
        scale = float(np.abs(W).max())
        power = {"N": 2, "III": 3}.get(item.expected_type)
        if item.expected_type == "O":
            expect(scale == 0.0, "type O input has omega exactly 0")
        elif power is not None:
            residue = float(np.abs(np.linalg.matrix_power(W, power)).max())
            expect(residue <= 1e-12 * scale**power,
                   f"type {item.expected_type} input: omega^{power} vanishes")
    solver = gen.SpecialSolver()
    try:
        solver.solve(np.eye(3, dtype=complex))  # trace 3: no Ricci-flat tensor has it
        expect(False, "solver rejects an unreachable (non-traceless) target")
    except gen.InputError:
        expect(True, "solver rejects an unreachable (non-traceless) target")


def test_decision_table() -> None:
    def rep(ptype, alg_geo, nil=None):
        mult = [{"eigenvalue": {"re": 0, "im": 0}, "algebraic": a, "geometric": g}
                for a, g in alg_geo]
        return {"petrov_type": ptype, "multiplicities": mult, "nilpotency_degree": nil}

    table = [
        (rep("I", [(1, 1), (1, 1), (1, 1)]), "I"),
        (rep("D", [(2, 2), (1, 1)]), "D"),
        (rep("II", [(2, 1), (1, 1)]), "II"),
        (rep("N", [(3, 1)], 2), "N"),
        (rep("III", [(3, 1)], 3), "III"),
        (rep("O", [(3, 3)], 1), "O"),
    ]
    expect(all(checks.implied_type(r) == t for r, t in table), "decision table rows")
    contradiction = rep("N", [(1, 1), (1, 1), (1, 1)])
    expect(checks.check_special("N", json.dumps(contradiction)).consistent is False,
           "type N next to three distinct eigenvalues is inconsistent")


def test_classify_checkers() -> None:
    item = gen.generic_items(5, 1)[0]
    text = ops.classify_doc(item.text)
    good = checks.check_generic(item.omega, text)
    expect(good.ok and good.consistent, "generic checker accepts the real report")
    rep = json.loads(text)
    flipped = dict(rep, petrov_type="II")
    expect(rejects(checks.check_generic(item.omega, json.dumps(flipped))), "generic: flipped type rejected")
    moved = copy.deepcopy(rep)
    moved["eigenvalues"][0]["re"] += 1e-6 * float(np.abs(item.omega).max())
    expect(rejects(checks.check_generic(item.omega, json.dumps(moved))), "generic: moved eigenvalue rejected")
    dirty = copy.deepcopy(rep)
    dirty["residuals"]["psi_plus_lambda"] = 1e-9
    expect(rejects(checks.check_generic(item.omega, json.dumps(dirty))), "generic: residual above 1e-10 rejected")

    special = gen.special_items(5, 5)
    for it in special:
        out = ops.classify_doc(it.text)
        expect(checks.check_special(it.expected_type, out).ok, f"special {it.expected_type}: real report accepted")
        wrong = "I" if it.expected_type != "I" else "D"
        bad = json.dumps(dict(json.loads(out), petrov_type=wrong))
        expect(rejects(checks.check_special(it.expected_type, bad)), f"special {it.expected_type}: flipped type rejected")


def test_structure_checker(workdir: Path) -> None:
    item = gen.structure_items(2, 1, workdir)[0]
    results = ops.run_cli(item.argvs)
    expect(checks.check_structure(item, results).ok, "structure checker accepts the real outputs")

    def corrupt(k, fn):
        out = list(results)
        out[k] = fn(*out[k])
        return tuple(out)

    def edit(k, fn):
        doc = json.loads(results[k][1])
        fn(doc)
        return corrupt(k, lambda c, t: (c, json.dumps(doc)))

    def bump(doc, key):
        doc[key][0][0] += 1e-3

    bridge = f'sigma="1/{3 * item.alpha}"'
    cases = {
        "nonzero exit code": corrupt(0, lambda c, t: (1, t)),
        "ricci entry off": edit(0, lambda d: bump(d, "ricci")),
        "duad entry off": edit(1, lambda d: bump(d, "matrix")),
        "K6 weight off": edit(2, lambda d: d["edges"][0].update(weight=d["edges"][0]["weight"] + 1e-3)),
        "wrong bridge sigma": corrupt(3, lambda c, t: (c, t.replace(bridge, 'sigma="1/2"'))),
        "canon not equivalent": corrupt(4, lambda c, t: (c, "R_{0101}\n")),
    }
    for what, bad in cases.items():
        try:
            rejected = rejects(checks.check_structure(item, bad))
        except (ValueError, KeyError, TypeError):
            rejected = True  # malformed output counts as failed in the harness
        expect(rejected, f"structure: {what} rejected")

    pinned = SimpleNamespace(terms=[(1, "R", (0, 1, 2, 3)), (1, "R", (0, 2, 3, 1)), (1, "R", (0, 3, 1, 2))],
                             tensors=item.tensors)
    expect(checks._check_canon(pinned, "0\n") == "", "canon: cyclic triple -> 0 accepted")
    expect(checks._check_canon(pinned, "R_{0123}\n") != "", "canon: cyclic triple -> R_{0123} rejected")
    single = SimpleNamespace(terms=[(1, "R", (2, 3, 0, 1))], tensors=item.tensors)
    expect(checks._check_canon(single, "R_{0123}\n") == "", "canon: R_{lmik} -> R_{0123} accepted")
    expect(checks._check_canon(single, "R_{2301}\n") != "", "canon: non-canonical representative rejected")


def test_cold_checker(workdir: Path) -> None:
    item = gen.cold_items(4, 1, workdir, ops.classify_doc)[0]
    proc = run.spawn([sys.executable, "-m", "curvgraph", "classify", "--input", item.path])
    good = (proc.returncode, proc.stdout)
    expect(checks.check_cold(item.expected, good).ok, "cold checker accepts the real report")
    changed = json.dumps(dict(json.loads(proc.stdout), petrov_type="D"))
    expect(rejects(checks.check_cold(item.expected, (0, changed))), "cold: changed report rejected")
    expect(rejects(checks.check_cold(item.expected, (1, proc.stdout))), "cold: nonzero exit rejected")


def test_harness_counts_failures(workdir: Path) -> None:
    wl = run.build("classify_generic", 9, workdir)
    real = wl.op
    wl.op = lambda it: real(it).replace('"petrov_type": "I"', '"petrov_type": "D"')
    _, outputs, _, _ = run.run_loop(wl, 0.2, wl.op)
    tally = run.Tally()
    run.judge(wl, outputs, tally, {}, [])
    expect(tally.attempted > 0 and tally.failed == tally.attempted, "harness counts every corrupted op as failed")


def test_smoke() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[group]}
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                   and set(result["metrics"]) == names,
                   f"smoke {workload} trace={trace}: exit 0, correct, every metric present")


def main() -> int:
    test_reference_math()
    test_generators()
    test_decision_table()
    test_classify_checkers()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        test_structure_checker(Path(tmp))
        test_cold_checker(Path(tmp))
        test_harness_counts_failures(Path(tmp))
    test_smoke()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
