#!/bin/sh
# linger_cli refuses a journal written by another run: exit status 1
# (not a signal), with both run identities on stderr.
#
#   linger_cli_refusal.sh <linger_cli> <scratch dir>
#
# The first run journals a solver = los run on integrator = dverk; the
# second asks for the same config on the default core (dop853 under
# los), a different identity, over the same journal.
set -u
cli=$1
dir=$2
rm -rf "$dir" && mkdir -p "$dir" && cd "$dir" || exit 1

cat > los.ini <<'INI'
preset = lcdm
solver = los
los_accuracy = draft
grid = log
k_min = 0.004
k_max = 0.04
n_k = 3
l_max = 24
lmax_photon = 24
lmax_polarization = 12
lmax_neutrino = 12
driver = serial
store = run.pj
INI
{ cat los.ini; echo "integrator = dverk"; } > dverk.ini

if ! "$cli" dverk.ini > first.out 2>&1; then
  echo "FAIL: the integrator = dverk run did not complete:"
  cat first.out
  exit 1
fi

"$cli" los.ini > second.out 2> second.err
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: refused resume exited $status, want 1 (>128 is a signal)"
  cat second.err
  exit 1
fi
ids=$(grep -o '0x[0-9a-f]\{16\}' second.err | sort -u | wc -l)
if ! grep -q '^linger_cli: .*belongs to run 0x' second.err || [ "$ids" -ne 2 ]; then
  echo "FAIL: stderr does not name both run identities:"
  cat second.err
  exit 1
fi
echo "ok: exit 1 with $(cat second.err)"
