"""Host-time benchmark of record for the ``repro`` simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a closed loop and prints its
metrics; ``perfbench/README.md`` explains the workloads, the metrics and
how to read a traced run.  Nothing here is imported by ``repro`` itself.
"""
