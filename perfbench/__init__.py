"""One benchmark for the whole Retypd system; see ``perfbench/README.md``."""
