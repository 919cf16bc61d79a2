#!/usr/bin/env bash
# Run the installed `ncgabor` console script on a few small requests.
#
#   .github/check-console-script.sh
#
# adjoint and vol must print JSON, a request with malformed --gens must exit 2
# with one `error:` line and no traceback, and dual on a small window must
# print JSON.  Fails on the first request that does not.
set -euo pipefail
here=$(dirname "$0")
json() { python -c "import json, sys; assert isinstance(json.load(sys.stdin), dict)"; }
window='{"n":12,"re":[4,3,2,1,0,0,0,0,0,0,0,0],"im":[0,0,0,0,0,0,0,0,0,0,0,0]}'

ncgabor adjoint --n 12 --gens "(2,0),(0,3)" | json
ncgabor vol --n 12 --gens "(2,0),(0,3)" | json
err=$(mktemp)
"$here/run-limited.sh" --stderr "$err" 2 ncgabor bounds --n 12 --gens "(2,0),(0,3" --window "$window"
test "$(wc -l < "$err")" -eq 1
grep -q '^error: ' "$err"
ncgabor dual --n 12 --gens "(2,0),(0,3)" --window "$window" | json
echo "console script: 4 requests as expected"
