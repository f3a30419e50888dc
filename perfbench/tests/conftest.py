import os
import sys

# the benchmark's modules import each other as top-level modules, as they
# do when perfbench/run.py runs as a script
BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]
