"""Set-up probe, run in a fresh interpreter: prints the seconds from before
``import curvgraph`` to the end of the first op.

    python perfbench/probe.py classify <document path>
    python perfbench/probe.py cli '<JSON list of argv lists>'
"""
import json
import sys
import time


def main(kind: str, arg: str) -> None:
    payload = open(arg, encoding="utf-8").read() if kind == "classify" else json.loads(arg)
    start = time.perf_counter()
    import curvgraph  # noqa: F401  (the import is what is timed)
    import ops

    if kind == "classify":
        ops.classify_doc(payload)
    else:
        codes = [code for code, _ in ops.run_cli(payload)]
        if any(codes):
            sys.exit(f"probe: exit codes {codes}")
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
