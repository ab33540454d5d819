#!/usr/bin/env python
"""Ablation demo: removing the libcephfs global client_lock.

The paper identifies the global ``client_lock`` of libcephfs as the
reason Danaus loses to the kernel client on cached sequential reads
(Fig. 9 bottom, ceph tracker #23844) and reports that removing it helps
but "requires refactoring libcephfs, which is beyond our current scope".

This reproduction implements that refactoring as the client's
``locking=`` policy: ``"global"`` is the faithful single lock,
``"range"`` gives every inode its own state lock and every object-sized
range of a file its own data lock. The demo measures cached Seqread
throughput both ways.

Run:  python examples/client_lock_ablation.py
"""

from repro.bench.ablation import run_seqread_locking


def main():
    print("Cached sequential read, 6 reader threads, one Danaus client")
    print()
    rows = []
    for locking in ("global", "range"):
        row = run_seqread_locking(locking, duration=4.0)
        rows.append(row)
        print("%-14s %10.1f MB/s   (lock wait %.3fs)" % (
            row["locking"], row["throughput_mb_s"],
            row["client_lock_wait_s"],
        ))
    print()
    speedup = rows[1]["throughput_mb_s"] / max(rows[0]["throughput_mb_s"], 1e-9)
    print("fine-grained locking speedup: %.2fx" % speedup)
    print()
    print("paper (§6.3.2): 'removing the global lock improves the Danaus")
    print("concurrency but requires refactoring libcephfs' — here it is.")


if __name__ == "__main__":
    main()
