"""Outside-in, speed-normalised benchmark of the ``repro`` package (see README.md)."""
