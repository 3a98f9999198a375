"""Repository-local benchmark for csext; see README.md."""
