"""Host-time benchmark of the simulator (see NOTES.md; entry point run.py)."""
