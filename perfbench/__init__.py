"""Wall-clock benchmark of the ByteCard reproduction; run ``perfbench/run.py``."""
