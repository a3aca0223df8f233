#!/usr/bin/env python3
"""Compare a dbselectd /route response against `dbselect route` or
`dbselect select` output.

Usage: smoke_diff.py HTTP_JSON CLI_TEXT

Both must rank the same databases in the same order with the same scores
(the CLI prints scores with 6 decimal places; the JSON carries full
precision, so scores are compared after rounding).
"""
import json
import re
import sys

http_path, cli_path = sys.argv[1], sys.argv[2]

served = json.load(open(http_path))
http_ranking = [(r["database"], round(r["score"], 6)) for r in served["ranking"]]

# CLI ranking lines look like: "  med                      0.123456  (Root/Health/Medicine)"
line_re = re.compile(r"^\s{2}(\S+)\s+(-?\d+\.\d{6})\s+\(")
cli_ranking = []
for line in open(cli_path):
    m = line_re.match(line)
    if m:
        cli_ranking.append((m.group(1), float(m.group(2))))

if not http_ranking or not cli_ranking:
    sys.exit(f"empty ranking: http={http_ranking} cli={cli_ranking}")
if http_ranking != cli_ranking:
    sys.exit(
        "daemon and CLI rankings diverge:\n"
        f"  http: {http_ranking}\n"
        f"  cli:  {cli_ranking}"
    )
print(f"rankings identical across HTTP and CLI: {http_ranking}")
