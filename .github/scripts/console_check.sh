#!/usr/bin/env bash
# End-to-end check of the installed `umdo-bench` console script: generate a
# pinned instance, solve its reference, check the CLI's exit codes and run a
# one-repetition benchmark. Run it after `pip install .`; it works in
# $RUNNER_TEMP, which must name a writable directory.
set -eo pipefail

# sha256 of the file that the `generate` call below writes. Every CI job
# checks it, so the file's bytes are the same on every supported stack.
P_JSON_SHA256=47a68fb0dd072465964b5ae5e685ace668d28c8f3c1306eea9abf410b28cd55f
# instance_digest of the problem in that file, which its benchmark report
# records: the same bits give the same value on every stack.
P_JSON_INSTANCE_DIGEST=bin1:feb3a3a8a59801e3f09204055b6e60449b8c84f2abf1d463524c4fa7e33d81a9

cd "${RUNNER_TEMP:?RUNNER_TEMP must name a writable directory}"
# The module entry point that README documents runs the same CLI.
version=$(umdo-bench --version)
test "$version" = "umdo-bench $(python -c 'import umdobench; print(umdobench.__version__)')"
test "$(python -m umdobench.cli --version)" = "$version"
# Importing the package and its CLI loads no scipy module; scipy loads at
# the first factorization.
python -c "import sys, umdobench, umdobench.cli; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
digest=$(umdo-bench generate --disciplines 2 --shared 1 --local 2,2 --coupling 3,3 \
    --seed 42 --sigma 0.01 --out p.json)
# The printed digest is the file's sha256 and the pinned value.
test "$digest" = "$(sha256sum p.json | cut -d ' ' -f 1)"
test "$digest" = "$P_JSON_SHA256"
umdo-bench solve-ref p.json --statistic margin --kappa 2 --out ref.json
# The same document with sorted keys, which puts the arrays before the
# config, and indented reads back the same problem: the same record.
python -c "import json; json.dump(json.load(open('p.json')), open('sorted.json', 'w'), sort_keys=True, indent=2)"
umdo-bench solve-ref sorted.json --statistic margin --kappa 2 --out sorted_ref.json
cmp ref.json sorted_ref.json
# A file cut inside C_blocks is malformed: exit code 4 and one error line.
python -c "d = open('p.json', 'rb').read(); open('cut.json', 'wb').write(d[: d.index(b'\"C_blocks\"') + 40])"
status=0
umdo-bench solve-ref cut.json 2> cut.err || status=$?
test "$status" -eq 4
test "$(wc -l < cut.err)" -eq 1
test "$(grep -c '^error:' cut.err)" -eq 1
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
# A sample size in non-ASCII digits is a usage error before any run.
rm -f r.json r.csv
status=0
umdo-bench benchmark p.json --estimators mc:２０ --out r || status=$?
test "$status" -eq 2
test ! -e r.json
# A file that is not UTF-8 is malformed, exit code 4.
printf '\xff{}' > latin1.json
status=0
umdo-bench solve-ref latin1.json || status=$?
test "$status" -eq 4
# Finite values whose reduction overflows are a runtime error, exit code 4,
# and no NaN reaches the output.
python -c "import json; d = json.load(open('p.json')); d['a'] = [1e300] * len(d['a']); json.dump(d, open('big.json', 'w'))"
status=0
umdo-bench solve-ref big.json --statistic margin > big.out || status=$?
test "$status" -eq 4
if grep -q NaN big.out; then echo "solve-ref printed NaN" >&2; exit 1; fi
# solve-mdf refuses such a file before any coupling solve: exit code 4 and
# one error line, no numpy warnings.
status=0
umdo-bench solve-mdf big.json --estimator mc:20 2> big.err || status=$?
test "$status" -eq 4
test "$(wc -l < big.err)" -eq 1
# A threshold scaled by 1e300 gives constraints that cannot bind on the unit
# box: the reference QP's interior-point iterates overflow, so solve-ref
# exits 4 with exactly one line on stderr, its error line.
python -c "import json; d = json.load(open('p.json')); d['t'] *= 1e300; json.dump(d, open('t_big.json', 'w'))"
status=0
umdo-bench solve-ref t_big.json --statistic margin 2> t_big.err || status=$?
test "$status" -eq 4
test "$(wc -l < t_big.err)" -eq 1
test "$(grep -c '^error:' t_big.err)" -eq 1
# Coupling blocks at 1e300 leave the map finite but make the sweeps
# diverge: both runs fail, quietly, and the report is still written.
python -c "import json; d = json.load(open('p.json')); d['C_blocks'] = [[i, j, [[v * 1e300 for v in row] for row in b]] for i, j, b in d['C_blocks']]; json.dump(d, open('diverge.json', 'w'))"
umdo-bench benchmark diverge.json --estimators mc:10,taylor --repetitions 1 \
    --out diverge_report 2> diverge.err
test -s diverge_report.json && test -s diverge_report.csv
test "$(grep -c '^failed:' diverge.err)" -eq 2
if grep -q RuntimeWarning diverge.err; then cat diverge.err >&2; exit 1; fi
# solve-mdf records the estimator label it ran.
umdo-bench solve-mdf p.json --estimator mc:20 > mc20.json
python -c "import json; assert json.load(open('mc20.json'))['estimator'] == 'mc:20'"
# At coupling strength 0.95 a Jacobi solve needs well over 30 sweeps; the
# derived sweep budget converges every one, so no run fails.
umdo-bench generate --disciplines 2 --shared 1 --local 2,2 --coupling 3,3 \
    --coupling-strength 0.95 --seed 71 --sigma 0.01 --out strong.json > /dev/null
umdo-bench benchmark strong.json --estimators mc:20,taylor --repetitions 2 \
    --out strong_report 2> strong.err
if grep -q "^failed:" strong.err; then cat strong.err >&2; exit 1; fi
umdo-bench benchmark p.json --statistic none --repetitions 1 --out expectation
python -c "import json; assert json.load(open('expectation.json'))['statistic']['constraint_stat'] == 'expectation'"
umdo-bench benchmark p.json --repetitions 1 --out report
test -s report.json && test -s report.csv
# solve-ref writes the same record as the report's reference block.
python -c "import json; assert json.load(open('ref.json')) == json.load(open('report.json'))['reference']"
# The report names the instance by its bits: the instance_digest of the
# file, of its sorted copy and the pinned value; the file's sha256 is no
# longer a report field.
python -c "
import json, sys, umdobench
report = json.load(open('report.json'))
digest = umdobench.instance_digest(umdobench.deserialize(open('p.json', 'rb').read()))
assert report['instance_digest'] == digest == sys.argv[1]
assert umdobench.instance_digest(umdobench.deserialize(open('sorted.json', 'rb').read())) == digest
assert 'problem_digest' not in report
" "$P_JSON_INSTANCE_DIGEST"
echo "console script check passed"
