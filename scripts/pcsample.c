/* A SIGPROF program-counter sampler, loaded with LD_PRELOAD.
 *
 * Every millisecond of process CPU time (ITIMER_PROF, all threads; the
 * kernel rounds the period up to its tick, 4 ms at HZ=250) the signal
 * handler records the interrupted PC. At exit the process writes
 * its memory map and the PCs to $PCSAMPLE_DIR/pcsample-<pid>.txt, which
 * scripts/pcprof.py symbolizes. Unlike a -pg build it changes no code and
 * counts no calls, so nothing is charged to the wrong symbol.
 *
 *   cc -O2 -shared -fPIC -o pcsample.so scripts/pcsample.c
 *   PCSAMPLE_DIR=out LD_PRELOAD=$PWD/pcsample.so ./program ...
 *
 * scripts/pcprof.py run does both steps. x86-64 and AArch64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22) /* 70 min of CPU time at 1 kHz */

static uintptr_t samples[MAX_SAMPLES];
static atomic_size_t n_samples;
static pid_t owner; /* a forked child inherits the buffer, not the timer */

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  const ucontext_t *uc = ctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pcsample: unsupported architecture"
#endif
  const size_t i = atomic_fetch_add_explicit(&n_samples, 1, memory_order_relaxed);
  if (i < MAX_SAMPLES) samples[i] = pc;
}

__attribute__((constructor)) static void pcsample_start(void) {
  owner = getpid();
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void pcsample_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (getpid() != owner) return;
  const char *dir = getenv("PCSAMPLE_DIR");
  char path[4096];
  snprintf(path, sizeof path, "%s/pcsample-%d.txt", dir ? dir : ".", (int)owner);
  FILE *out = fopen(path, "w");
  FILE *maps = fopen("/proc/self/maps", "r");
  if (out == NULL || maps == NULL) return;
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) fprintf(out, "map %s", line);
  fclose(maps);
  size_t n = atomic_load(&n_samples);
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  for (size_t i = 0; i < n; ++i) fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
  fclose(out);
}
