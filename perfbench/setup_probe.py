"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Times `import stratacalc.cli`, the corpus build (or load, including its
2^k validation LPs), and construction of every (function, oracle) entry the
workload's commands bind, then prints the elapsed seconds and, on a second
line, the median time of the host-speed kernel (see hostspeed.py) measured
right afterwards in the same process. Run by run.py as

    python3 perfbench/setup_probe.py SRC_DIR [CORPUS_FILE] [FID:ORACLE ...]
"""

import sys
import time

KERNEL_REPEATS = 15

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from stratacalc.cli import default_corpus, load_corpus  # noqa: E402
from stratacalc import MatrixEntry, parse_oracle  # noqa: E402

corpus_file = sys.argv[2] if len(sys.argv) > 2 and sys.argv[2] != "-" else None
corpus = load_corpus(corpus_file) if corpus_file else default_corpus()
for row in sys.argv[3:]:
    fid, oracle_id = row.split(":", 1)
    cf = corpus.function(fid)
    MatrixEntry(row, cf.func, parse_oracle(oracle_id, cf.func),
                cf.base_points, cf.curves, cf.partition)
elapsed = time.perf_counter() - t0

import hostspeed  # noqa: E402  (after the timed part: it imports numpy)

print(repr(elapsed))
print(repr(hostspeed.kernel_median(KERNEL_REPEATS)))
