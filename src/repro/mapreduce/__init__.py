"""MapReduce substrate with pluggable shuffle transports."""

from repro.mapreduce.cluster import Cluster, build_cluster, default_placement
from repro.mapreduce.job import (
    JobResult,
    JobSpec,
    ReducerMetrics,
    TaskPlacement,
)
from repro.mapreduce.mapper import MapOutput, MapTask
from repro.mapreduce.master import MapReduceMaster
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.reducer import ReduceTask
from repro.mapreduce.shuffle import DaietShuffle, ShuffleAccounting, ShuffleTransport
from repro.mapreduce.wordcount import (
    Corpus,
    CorpusSpec,
    generate_corpus,
    generate_vocabulary,
    make_wordcount_job,
    wordcount_map,
    wordcount_reduce,
)

__all__ = [
    "Cluster",
    "build_cluster",
    "default_placement",
    "JobResult",
    "JobSpec",
    "ReducerMetrics",
    "TaskPlacement",
    "MapOutput",
    "MapTask",
    "MapReduceMaster",
    "HashPartitioner",
    "ReduceTask",
    "DaietShuffle",
    "ShuffleAccounting",
    "ShuffleTransport",
    "Corpus",
    "CorpusSpec",
    "generate_corpus",
    "generate_vocabulary",
    "make_wordcount_job",
    "wordcount_map",
    "wordcount_reduce",
]
