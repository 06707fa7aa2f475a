"""Run one `qll` CLI task with span wrappers installed; write the spans.

    python3 perfbench/trace_cli.py SPANS.jsonl OP_ID TASK [qll cli arguments]

Used by cli_fine's traced run in place of `python -m qll.cli`.
"""

import sys

import tracing

import qll.cli


def main():
    spans_path, op = sys.argv[1], int(sys.argv[2])
    tracer = tracing.Tracer()
    with tracer.recording(op):
        code = qll.cli.main(sys.argv[3:])
    tracer.write_jsonl(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
