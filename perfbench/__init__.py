"""The repository benchmark: see BENCHMARK.json and run.py."""
