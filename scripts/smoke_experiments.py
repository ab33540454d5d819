"""Quick smoke run of every experiment at minimal scale (calibration aid)."""
import sys, time

def clock(label, fn):
    t0 = time.time()
    try:
        out = fn()
        print(label, {k: (round(v, 3) if isinstance(v, float) else v)
                      for k, v in out.items()},
              "wall=%.1fs" % (time.time() - t0))
    except Exception as e:
        import traceback; traceback.print_exc()
        print(label, "FAILED:", e)
    sys.stdout.flush()

from repro.bench.rocksdb_exp import run_rocksdb_scaleout, run_rocksdb_scaleup
clock("fig7a D", lambda: run_rocksdb_scaleout("D", 1, "put"))
clock("fig7a K", lambda: run_rocksdb_scaleout("K", 1, "put"))
clock("fig7b D", lambda: run_rocksdb_scaleout("D", 1, "get"))
clock("fig7c D", lambda: run_rocksdb_scaleup("D", 2, "put"))
clock("fig7c K/K", lambda: run_rocksdb_scaleup("K/K", 2, "put"))
clock("fig7d F/F", lambda: run_rocksdb_scaleup("F/F", 2, "get"))
from repro.bench.startup import run_startup
clock("fig8 D", lambda: run_startup("D", 2))
clock("fig8 K/K", lambda: run_startup("K/K", 2))
clock("fig8 F/F", lambda: run_startup("F/F", 2))
from repro.bench.sequential import run_sequential
clock("fig9w D", lambda: run_sequential("D", 1, "write"))
clock("fig9w K", lambda: run_sequential("K", 1, "write"))
clock("fig9r D", lambda: run_sequential("D", 1, "read"))
clock("fig9r K", lambda: run_sequential("K", 1, "read"))
clock("fig9r F", lambda: run_sequential("F", 1, "read"))
from repro.bench.fileserver_exp import run_fileserver_scaleout
clock("fig10 D", lambda: run_fileserver_scaleout("D", 1))
from repro.bench.scaleup import run_file_scaleup
clock("fig11a D", lambda: run_file_scaleup("D", 2, "append"))
clock("fig11a FP/FP", lambda: run_file_scaleup("FP/FP", 2, "append"))
clock("fig11b K/K", lambda: run_file_scaleup("K/K", 2, "read"))
from repro.bench.ablation import run_seqread_locking, run_seqwrite_queues
clock("abl-locking global", lambda: run_seqread_locking("global", duration=3.0))
clock("abl-locking inode", lambda: run_seqread_locking("inode", duration=3.0))
clock("abl-ipc single", lambda: run_seqwrite_queues(True, duration=3.0))
clock("abl-ipc group", lambda: run_seqwrite_queues(False, duration=3.0))
