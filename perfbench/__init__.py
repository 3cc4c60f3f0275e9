"""Wall-clock benchmark of the analysis pipeline and the dataplane (see README.md)."""
