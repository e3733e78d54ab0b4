"""Host-CPU benchmark of verified all-reduces; see README.md."""
