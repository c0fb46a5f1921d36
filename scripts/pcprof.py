#!/usr/bin/env python3
"""Sample a program's PCs with scripts/pcsample.c and report where its CPU time went.

    scripts/pcprof.py run [--out DIR] [--top N] -- PROGRAM ARGS...
    scripts/pcprof.py report [--top N] DIR_OR_FILE...

`run` compiles the sampler into DIR (default: a new temporary directory),
runs PROGRAM with it preloaded, and reports. `report` symbolizes sample
files (pcsample-<pid>.txt) written earlier. Run the program binary itself, not
a wrapper that builds it: every process started under the sampler writes
its own file, and `report` pools them all.

Each sample is one interrupted PC. `addr2line -f -i -C` turns it into its
chain of inline frames; the report charges the sample once to its innermost
frame (the source function whose code ran, inlined or not) and once to its
outermost frame (the compiled function that contains it). Names from a
shared object carry its name in brackets; without debug information they
are its nearest exported symbol, or `?? [object]`.
"""
import argparse
import collections
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """Returns (mappings, pcs) of one sample file."""
    maps, pcs = [], []
    with open(path, errors="replace") as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "pc":
                pcs.append(int(rest, 16))
            elif kind == "map":
                fields = rest.split(None, 5)
                if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
    return maps, pcs


def load_segments(obj):
    """PT_LOAD (offset, vaddr, filesz) triples of an ELF object."""
    out = subprocess.run(["readelf", "-lW", obj], capture_output=True, text=True).stdout
    segs = []
    for line in out.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def to_vaddr(segs, off):
    for seg_off, vaddr, size in segs:
        if seg_off <= off < seg_off + size:
            return off - seg_off + vaddr
    return off


def symbolize(obj, addrs):
    """{addr: [(function, file:line), ...]} innermost frame first."""
    res = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
                         input="".join(f"{a:#x}\n" for a in addrs),
                         capture_output=True, text=True)
    frames, cur, lines = {}, None, res.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            cur = int(lines[i], 16)
            frames[cur] = []
            i += 1
        else:
            where = lines[i + 1] if i + 1 < len(lines) else "??"
            frames[cur].append((lines[i], where))
            i += 2
    return frames


def report(paths, top):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.startswith("pcsample-")]
        else:
            files.append(p)
    # (object, file offset) -> sample count
    hits = collections.Counter()
    total = 0
    for path in files:
        maps, pcs = load(path)
        total += len(pcs)
        for pc in pcs:
            for lo, hi, off, obj in maps:
                if lo <= pc < hi:
                    hits[(obj, pc - lo + off)] += 1
                    break
            else:
                hits[("[unmapped]", pc)] += 1
    if total == 0:
        sys.exit("pcprof: no samples")
    by_obj = collections.defaultdict(list)
    for obj, off in hits:
        by_obj[obj].append(off)
    inner, outer = collections.Counter(), collections.Counter()
    for obj, offs in by_obj.items():
        name = os.path.basename(obj)
        syms = {}
        if os.path.isfile(obj):
            segs = load_segments(obj)
            vaddrs = {off: to_vaddr(segs, off) for off in offs}
            table = symbolize(obj, sorted(set(vaddrs.values())))
            syms = {off: table.get(v, []) for off, v in vaddrs.items()}
        # A shared object's names carry its own name: without debug
        # information addr2line falls back to the nearest exported symbol.
        tag = f" [{name}]" if ".so" in name else ""
        for off in offs:
            n = hits[(obj, off)]
            chain = [fn + tag for fn, _ in syms.get(off, []) if fn != "??"]
            inner[chain[0] if chain else f"?? [{name}]"] += n
            outer[chain[-1] if chain else f"?? [{name}]"] += n
    print(f"{total} samples from {len(files)} process(es)")
    for title, counts in (("innermost frame (inlined code charged to its own function)", inner),
                          ("outermost frame (the compiled function)", outer)):
        print(f"\n  share  samples  {title}")
        for fn, n in counts.most_common(top):
            if len(fn) > 120:
                fn = fn[:117] + "..."
            print(f"{100.0 * n / total:6.1f}% {n:8d}  {fn}")


def run(args):
    out = args.out or tempfile.mkdtemp(prefix="pcprof.")
    os.makedirs(out, exist_ok=True)
    lib = os.path.join(out, "pcsample.so")
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib,
                    os.path.join(HERE, "pcsample.c")], check=True)
    env = dict(os.environ, LD_PRELOAD=lib, PCSAMPLE_DIR=out)
    status = subprocess.run(args.cmd, env=env).returncode
    print(f"pcprof: samples in {out}", file=sys.stderr)
    report([out], args.top)
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run", help="sample PROGRAM, then report")
    r.add_argument("--out", help="directory for the sampler and its files")
    r.add_argument("--top", type=int, default=25)
    r.add_argument("cmd", nargs=argparse.REMAINDER)
    p = sub.add_parser("report", help="report sample files written earlier")
    p.add_argument("--top", type=int, default=25)
    p.add_argument("paths", nargs="+")
    args = ap.parse_args()
    if args.mode == "report":
        report(args.paths, args.top)
        return 0
    if args.cmd and args.cmd[0] == "--":
        args.cmd = args.cmd[1:]
    if not args.cmd:
        ap.error("run: PROGRAM is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
