#!/usr/bin/env python3
"""Record the correctness gate's reference values for every workload variant.

    python3 benchmarks/record_references.py [--configs DIR] [--out FILE]

Runs each workload once per input variant and stores the CSV row counts, the
numeric summary values and the last coefficients row that gate.py compares
later runs against.  Record only on a commit whose outputs are trusted; the
file keeps the source digest of the code that produced it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run  # pins BLAS threads and puts ./src on the path before numpy loads

import gate


def record_all(configs: Path) -> dict:
    workloads = {}
    for name, workload in run.WORKLOADS.items():
        variants = {}
        for variant in range(run.VARIANTS):
            source = configs / f"{name}.ini"
            inputs = run.workload_inputs(source, workload, variant)
            config, outdir = run.prepare(name, source, inputs)
            _, code = run.run_once(workload, config, outdir)
            if code != 0:
                raise SystemExit(f"{name} variant {variant}: exit code {code}; nothing recorded")
            ref = gate.record(workload.subcommand, outdir)
            if variants and ref["rows"] != variants["0"]["rows"]:
                raise SystemExit(f"{name} variant {variant}: row counts depend on the seed")
            variants[str(variant)] = {"inputs": inputs, **ref}
        workloads[name] = variants
    return {"heatchain_source_sha256": run.environment()["heatchain"]["source_sha256"],
            "workloads": workloads}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--configs", type=Path, default=run.BENCH / "configs")
    parser.add_argument("--out", type=Path, default=run.BENCH / "references.json")
    args = parser.parse_args(argv)
    data = record_all(args.configs)
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
