#!/usr/bin/env bash
# Byte-identity check between two builds: the proof that a refactor or a
# deletion changed no figure.
#
# Runs every figure bench (fig1..fig14), `fig3_elasticity_poc --serial` and
# default `sweep_matrix`, each at --jobs 1 and --jobs 4, from both build
# trees, and compares per run:
#   - the --out table (cmp);
#   - stdout (cmp);
#   - the --report JSONL minus its `process` rows, which carry wall time
#     and RSS (diff);
#   - the exit status (fig3 exits non-zero when its shape check fails).
# stderr (progress lines) is kept but not compared. Prints one line per
# difference and exits 1 if there is any, 0 if every byte matched.
#
# Usage: scripts/figure_bytes.sh BUILD_A BUILD_B
#   e.g. scripts/figure_bytes.sh ../parent/build build
#   CCC_FIGURE_BYTES_DIR=DIR  keep the outputs in DIR/a and DIR/b
#                             (default: a temporary directory, removed)
# Takes about a minute per build on 4 CPUs.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi
builds=()
for b in "$1" "$2"; do
  if [ ! -d "${b}/bench" ]; then
    echo "figure_bytes: ${b}/bench not found (cmake --build ${b})" >&2
    exit 2
  fi
  builds+=("$(cd "${b}" && pwd)")
done

if [ -n "${CCC_FIGURE_BYTES_DIR:-}" ]; then
  out=${CCC_FIGURE_BYTES_DIR}
  mkdir -p "${out}"
else
  out=$(mktemp -d)
  trap 'rm -rf "${out}"' EXIT
fi

# name|binary|extra args
runs=(
  "fig1|fig1_isolation_ablation|"
  "fig2|fig2_mlab_passive|"
  "fig3|fig3_elasticity_poc|"
  "fig3_serial|fig3_elasticity_poc|--serial"
  "fig4|fig4_bbr_vs_loss|"
  "fig5|fig5_applimited|"
  "fig6|fig6_subpacket_bdp|"
  "fig7|fig7_elasticity_ablation|"
  "fig8|fig8_variability|"
  "fig9|fig9_jitter|"
  "fig10|fig10_tslp|"
  "fig11|fig11_datacenter|"
  "fig12|fig12_rcs|"
  "fig13|fig13_bwe|"
  "fig14|fig14_harm_matrix|"
  "sweep_matrix|sweep_matrix|"
)

for side in a b; do
  build=${builds[0]}
  [ "${side}" = b ] && build=${builds[1]}
  mkdir -p "${out}/${side}"
  for jobs in 1 4; do
    for run in "${runs[@]}"; do
      IFS='|' read -r name bin args <<<"${run}"
      tag="${name}.j${jobs}"
      # Each run gets its own directory, so files a bench writes next to
      # itself cannot collide.
      dir="${out}/${side}/${tag}"
      mkdir -p "${dir}"
      status=0
      # shellcheck disable=SC2086  # args is a word list
      (cd "${dir}" && "${build}/bench/${bin}" ${args} --jobs "${jobs}" --out table.txt \
        --report report.jsonl >stdout.txt 2>stderr.txt) || status=$?
      echo "${status}" >"${dir}/exit"
      grep -v '"process"' "${dir}/report.jsonl" >"${dir}/report.rows" 2>/dev/null || true
    done
  done
  echo "figure_bytes: ran ${#runs[@]} benches x 2 job counts from ${build}" >&2
done

differ=0
for jobs in 1 4; do
  for run in "${runs[@]}"; do
    IFS='|' read -r name _ _ <<<"${run}"
    tag="${name}.j${jobs}"
    for f in table.txt stdout.txt report.rows exit; do
      if ! cmp -s "${out}/a/${tag}/${f}" "${out}/b/${tag}/${f}"; then
        echo "DIFFERS: ${tag} ${f}"
        differ=1
      fi
    done
  done
done
if [ "${differ}" -ne 0 ]; then
  echo "figure_bytes: outputs differ" >&2
  exit 1
fi
echo "figure_bytes: all $(( ${#runs[@]} * 2 )) runs byte-identical"
