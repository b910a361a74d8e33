# BPSK n=16 against exact ML, two Eb/N0 points, 4,480 bits per point; the
# seed was fixed before the run. From the root of a checkout:
PYTHONPATH=src python -m isingmimo.cli run --n 16 --mod 2 --ebn0 4,8 --bits 4480 \
    --detectors bpim,mmse,ml --seed 16 --out results/bpsk-n16-ml-check
# Re-run from the manifest (tests/test_results.py compares the CSV bytes):
PYTHONPATH=src python -m isingmimo.cli report \
    --manifest results/bpsk-n16-ml-check/manifest.json --out /tmp/bpsk-n16-ml-check
