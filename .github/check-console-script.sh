#!/usr/bin/env bash
# Run the installed `ncgabor` console script on a few small requests.
#
#   .github/check-console-script.sh
#
# adjoint must print JSON and vol the covolume "1/2" (fractions loads only
# there), grs must print its 13 ray samples and the verdict on stderr, a
# request with malformed --gens and a dual request with a window one sample
# short must each exit 2 with one `error:` line and no traceback, and dual on
# a small window must print JSON.  Fails on the first request that does not.
set -euo pipefail
here=$(dirname "$0")
json() { python -c "import json, sys; assert isinstance(json.load(sys.stdin), dict)"; }
window='{"n":12,"re":[4,3,2,1,0,0,0,0,0,0,0,0],"im":[0,0,0,0,0,0,0,0,0,0,0,0]}'
short='{"n":11,"re":[4,3,2,1,0,0,0,0,0,0,0],"im":[0,0,0,0,0,0,0,0,0,0,0]}'

ncgabor adjoint --n 12 --gens "(2,0),(0,3)" | json
ncgabor vol --n 12 --gens "(2,0),(0,3)" | python -c "import json, sys; assert json.load(sys.stdin)['vol'] == '1/2'"
err=$(mktemp)
ncgabor grs --weight '{"family":"exponential","b":1.0}' --nmax 4096 2> "$err" |
    python -c "import sys; lines = sys.stdin.read().splitlines(); assert lines[0] == 'n,sample' and len(lines) == 14"
test "$(cat "$err")" = "verdict: violates-GRS"
"$here/run-limited.sh" --stderr "$err" 2 ncgabor bounds --n 12 --gens "(2,0),(0,3" --window "$window"
test "$(wc -l < "$err")" -eq 1
grep -q '^error: ' "$err"
"$here/run-limited.sh" --stderr "$err" 2 ncgabor dual --n 12 --gens "(2,0),(0,3)" --window "$short"
test "$(wc -l < "$err")" -eq 1
grep -q '^error: ' "$err"
ncgabor dual --n 12 --gens "(2,0),(0,3)" --window "$window" | json
echo "console script: 6 requests as expected"
