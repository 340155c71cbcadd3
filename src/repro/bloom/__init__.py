"""Bloom-filter substrate for predicate transfer: the paper's FPDB uses
Apache Arrow's bloom filter, this reproduction Spark's own runtime-filter
expressions, driven from ``spark_bloom`` (one scan builds all of a
table's outgoing filters, §3.2; one filter probes all it received).
``filter.optimal_params`` sizes them; the numpy ``filter.BloomFilter``
and ``hashing`` serve only the micro-benchmark.
"""
