"""Child process of run.py, so each measurement starts from a fresh
interpreter.

    python3 probe.py setup WORKLOAD SEED full|tiny
        import theta_parity and make the inputs, then exit
    python3 probe.py memory WORKLOAD SEED full|tiny
        also run and check one iteration in a forked child; print the
        child's peak RSS, less file-backed pages, as JSON
"""

import sys

import workloads


def _file_rss_kb() -> int:
    """Resident pages backed by files: library code and data.  How many of
    them a process maps depends on what the page cache holds, which other
    processes change, so they are left out of the peak."""
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return sum(int(fields[k].split()[0]) for k in ("RssFile", "RssShmem"))


def main() -> int:
    mode, workload, seed, size = sys.argv[1:5]
    tp = workloads.import_program()
    inp = workloads.make_inputs(workload, int(seed), size == "tiny")
    if mode == "setup":
        return 0
    import json
    import os
    import resource
    golden = workloads.load_golden()
    # Linux carries a parent's peak RSS into ru_maxrss across exec, so this
    # process's own figure would include the benchmark's.  A forked child
    # starts a fresh record from the state after import.
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        scratch = workloads.OUT_DIR / f"{workload}-probe-{os.getpid()}.out"
        try:
            attempted, failed = workloads.run_iteration(tp, inp, golden, scratch)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - _file_rss_kb()
            os.write(write_fd, json.dumps({"peak_kb": peak_kb,
                                           "attempted": attempted,
                                           "failed": failed}).encode())
            code = 0
        finally:
            scratch.unlink(missing_ok=True)
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        report = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return 1
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
