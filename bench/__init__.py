"""abcast benchmark: workloads, spans, trace counting and result comparison.
Run it with `python3 bench/run.py`; see bench/README.md."""
