"""One pass: a fresh process that does what `sftkit verify DOC --format
machine -o REPORT` does, in the same order, and times it.

    python3 claimbench/child.py SRC DOC REPORT RESULT SEED SPAWN_TIME TRACE

SRC is the directory holding the sftkit package under test. SPAWN_TIME is the
parent's time.time() just before it started this process, so setup_s counts
interpreter start, the sftkit import, parsing the claims doc (which rebuilds
and cross-checks every model record) and building the catalog models. wall_s
runs from the first claim starting to the last report record written.

RESULT receives the timings, the peak RSS and an environment stamp; with
TRACE=1 it also receives the spans recorded around each layer.
"""

import dataclasses
import json
import os
import resource
import sys
import time


def main(argv) -> int:
    src, doc_path, report_path, result_path = argv[1:5]
    seed, spawn_time, trace = int(argv[5]), float(argv[6]), argv[7] == "1"
    sys.path.insert(0, src)
    import sftkit
    from sftkit import budget, exponents, files, models, suite

    if not os.path.abspath(sftkit.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"sftkit imported from {sftkit.__file__}, not {src}")
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    extra, claims = files.parse_claims_doc(files.load_json(doc_path),
                                           where=doc_path)
    model_map = {**models.catalog_models(), **extra}
    first_claim = time.time()
    t0 = time.perf_counter()
    results = suite.run_suite(claims, models=model_map, seed=seed,
                              budgets=budget.Budgets())
    lines = [files.dumps_record(files.report_record(r)) for r in results]
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    t1 = time.perf_counter()
    out = {
        "setup_s": first_claim - spawn_time,
        "wall_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": sys.version.split()[0],
            "engine": exponents.ENGINE_NAME,
            "nproc": os.cpu_count(),
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "budget_profile": os.environ.get(budget.ENV_PROFILE, "default"),
            "budgets": dataclasses.asdict(budget.Budgets()),
        },
    }
    if tracer is not None:
        tracer.uninstall()
        out["window"] = [t0, t1]
        out["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
