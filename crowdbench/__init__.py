"""Crowd-serving benchmark: drives ``python -m repro.service`` over HTTP.

See ``crowdbench/README.md`` for the workloads, the metrics and how to run
them.  Nothing in this package imports ``repro`` on the untraced path; the
program is reached through its HTTP API and its command line only.
"""
