"""Printing a run: a readable table, a detail line, then the result line."""

from __future__ import annotations

import json

__all__ = ["result_line", "emit"]


def result_line(result) -> str:
    """The JSON object the benchmark prints last."""
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    })


def emit(args, workload, result):
    mode = "traced" if args.trace else "untraced"
    print(f"# {workload.name} ({mode}, seed {args.seed}, {args.seconds:g} s): {workload.why}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    failed = [c for c in result.checks if not c[1]]
    print(f"  checks: {len(result.checks) - len(failed)} of {len(result.checks)} passed")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    if args.trace:
        print("  note: noise is drawn inline in harness.eval_ber and chain.run_chain "
              "(channel.awgn has no pipeline caller), so channel time lands in "
              "harness.self_s and chain.run_chain_ms")
    detail = dict(result.detail, checks=[list(c) for c in result.checks])
    print("detail " + json.dumps(detail, sort_keys=True))
    print(result_line(result))
