"""Bloom-filter substrate for predicate transfer: the paper's FPDB uses
Apache Arrow's bloom filter, this reproduction Spark's own runtime-filter
expressions, driven from ``spark_bloom`` (one scan builds all of a
table's outgoing filters, §3.2; one filter probes all it received).
``filter.optimal_params`` sizes them; the numpy ``filter.BloomFilter``
and ``hashing`` serve only the micro-benchmark.
"""
from repro.bloom.filter import optimal_params
from repro.bloom.spark_bloom import BloomSpec, SparkBloomFilter, apply_blooms, build_blooms

__all__ = ["optimal_params", "BloomSpec", "SparkBloomFilter", "build_blooms", "apply_blooms"]
