"""A benchmark of the TAPIOCA reproduction: see README.md."""
