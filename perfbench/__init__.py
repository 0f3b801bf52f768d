"""Two-clock benchmark for the Sirius reproduction (see ``run.py``)."""
