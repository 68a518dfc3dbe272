#!/usr/bin/env bash
# Counts the heap allocations a command makes.
#
# Usage: scripts/count_allocs.sh COMMAND [ARGS...]
#
# Builds a small LD_PRELOAD library with the installed C compiler (into a
# temporary directory, removed on exit) that counts every malloc() call,
# runs COMMAND under it, and prints the count of COMMAND's own process as
# the last line of standard output:
#
#   malloc_calls 1234567
#
# Every `operator new` in libstdc++ lands in malloc(), so the count is the
# program's `operator new` calls plus its direct malloc() calls. Child
# processes the command starts are counted separately and listed on
# standard error, so run a benchmark binary directly rather than through
# a wrapper that builds it first. The command's exit code is passed
# through.
#
# Per-repetition counts. A benchmark run also pays for its set-up,
# probes and teardown, so the allocations of one repetition are the
# difference of two runs that differ only in their repetition count:
#
#   R=.bench_build/perfbench/perfbench_runner
#   scripts/count_allocs.sh $R --workload periscope_tail --seed 1 --seconds 0.001
#   scripts/count_allocs.sh $R --workload periscope_tail --seed 1 --seconds S
#
# The first run makes one repetition. Pick S a little above one
# repetition's wall time so the second makes two; the runner's `reps N`
# line says how many it made. Per repetition = (count of the 2-rep run -
# count of the 1-rep run) / (2 - 1).
set -euo pipefail

if [[ $# -eq 0 ]]; then
  sed -n '2,31p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi

CC=${CC:-gcc}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/count_malloc.c" <<'EOF'
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void* __libc_malloc(size_t size);

static unsigned long long calls;

void* malloc(size_t size) {
  __atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED);
  return __libc_malloc(size);
}

/* One line per exiting process: "<pid> <program> <calls>". */
__attribute__((destructor)) static void report(void) {
  const char* path = getenv("COUNT_ALLOCS_LOG");
  if (path == NULL) return;
  char line[512];
  const int n = snprintf(line, sizeof line, "%ld %s %llu\n", (long)getpid(),
                         program_invocation_short_name,
                         __atomic_load_n(&calls, __ATOMIC_RELAXED));
  const int fd = open(path, O_WRONLY | O_APPEND | O_CREAT, 0600);
  if (fd < 0) return;
  if (n > 0) {
    const ssize_t ignored = write(fd, line, (size_t)n);
    (void)ignored;
  }
  close(fd);
}
EOF
"$CC" -O2 -shared -fPIC -o "$work/libcount_malloc.so" "$work/count_malloc.c"

log="$work/counts.log"
status=0
COUNT_ALLOCS_LOG="$log" LD_PRELOAD="$work/libcount_malloc.so${LD_PRELOAD:+:$LD_PRELOAD}" \
  "$@" &
pid=$!
wait "$pid" || status=$?

touch "$log"
while read -r p prog count; do
  [[ "$p" == "$pid" ]] || echo "count_allocs: child $p ($prog): $count" >&2
done < "$log"
own=$(awk -v pid="$pid" '$1 == pid { print $3 }' "$log")
if [[ -z "$own" ]]; then
  echo "count_allocs: the command's own process reported no count" >&2
  exit $((status != 0 ? status : 1))
fi
echo "malloc_calls $own"
exit "$status"
