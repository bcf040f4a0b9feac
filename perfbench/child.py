"""Helper processes of the benchmark, started by run.py.

    child.py fixture WORKLOAD SEED WORKDIR TRACE
        Build the workload's inputs into WORKDIR and write WORKDIR/fixture.json.
        Never timed. With TRACE=1 the build is traced, to report synth time.
    child.py setup WORKLOAD WORKDIR
        The set-up a user pays in a fresh process: import sabmis, read the
        key and load the inputs. Prints "ready" when done; run.py times it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checkout


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 3:
        checkout.use_checkout_source()
        import workloads
        workloads.WORKLOADS[argv[1]].load(Path(argv[2]))
        print("ready", flush=True)
        return 0
    if mode == "fixture" and len(argv) == 5:
        checkout.use_checkout_source()
        import tracer
        import workloads
        work, trace = Path(argv[3]), argv[4] == "1"
        build = workloads.WORKLOADS[argv[1]].fixture
        t0 = time.perf_counter()
        if trace:
            tr = tracer.Tracer()
            with tr.installed():
                info = build(int(argv[2]), work)
            info["synth_self_s"] = tracer.layer_self_seconds(tr.summary()).get("synth", 0.0)
        else:
            info = build(int(argv[2]), work)
        info["fixture_s"] = time.perf_counter() - t0
        (work / "fixture.json").write_text(json.dumps(info), encoding="utf-8")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
