"""The set-up a workload command does before scoring, in a fresh process.

``python3 setup_probe.py DATASET CLAIMS AMRS BACKEND`` imports amrex and
makes only the calls ``verify``/``evaluate`` make before the first pair is
scored; the harness times the whole process as ``setup_s``.
"""

import sys


def main(dataset: str, claims: str, amrs: str, backend: str) -> None:
    from amrex import ingest, similarity
    records = ingest.load_claims(claims, dataset)
    bundle = ingest.load_amr_bundle(amrs)
    ingest.join_amrs(records, bundle, strict=True)
    similarity.backend_from_spec(backend)


if __name__ == "__main__":
    main(*sys.argv[1:5])
