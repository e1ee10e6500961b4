"""Host-throughput benchmark of the simulator; see README.md."""
