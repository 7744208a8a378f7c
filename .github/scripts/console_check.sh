#!/usr/bin/env bash
# End-to-end check of the installed `umdo-bench` console script: generate a
# pinned instance, solve its reference, check the CLI's exit codes and run a
# one-repetition benchmark. Run it after `pip install .`; it works in
# $RUNNER_TEMP, which must name a writable directory.
set -eo pipefail

# sha256 of the file that the `generate` call below writes. Every CI job
# checks it, so the file's bytes are the same on every supported stack.
P_JSON_SHA256=47a68fb0dd072465964b5ae5e685ace668d28c8f3c1306eea9abf410b28cd55f

cd "${RUNNER_TEMP:?RUNNER_TEMP must name a writable directory}"
digest=$(umdo-bench generate --disciplines 2 --shared 1 --local 2,2 --coupling 3,3 \
    --seed 42 --sigma 0.01 --out p.json)
# The printed digest is the file's sha256 and the pinned value.
test "$digest" = "$(sha256sum p.json | cut -d ' ' -f 1)"
test "$digest" = "$P_JSON_SHA256"
umdo-bench solve-ref p.json --statistic margin --kappa 2 --out ref.json
# Invalid numbers are usage errors, exit code 2.
status=0
umdo-bench solve-ref p.json --statistic margin --kappa nan || status=$?
test "$status" -eq 2
status=0
umdo-bench solve-ref p.json --statistic margin --sigma nan || status=$?
test "$status" -eq 2
# So are out-of-range counts and a missing --epsilon.
status=0
umdo-bench benchmark p.json --repetitions 0 || status=$?
test "$status" -eq 2
status=0
umdo-bench benchmark p.json --workers 0 || status=$?
test "$status" -eq 2
status=0
umdo-bench solve-ref p.json --statistic probability || status=$?
test "$status" -eq 2
# A file that is not UTF-8 is malformed, exit code 4.
printf '\xff{}' > latin1.json
status=0
umdo-bench solve-ref latin1.json || status=$?
test "$status" -eq 4
umdo-bench benchmark p.json --statistic none --repetitions 1 --out expectation
python -c "import json; assert json.load(open('expectation.json'))['statistic']['constraint_stat'] == 'expectation'"
umdo-bench benchmark p.json --repetitions 1 --out report
test -s report.json && test -s report.csv
# solve-ref writes the same record as the report's reference block.
python -c "import json; assert json.load(open('ref.json')) == json.load(open('report.json'))['reference']"
# The report names the instance by the digest of the same file.
python -c "import json, sys; assert json.load(open('report.json'))['problem_digest'] == sys.argv[1]" "$digest"
echo "console script check passed"
