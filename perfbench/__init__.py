"""Capture→verdict benchmark; ``python3 perfbench/run.py --help``."""
