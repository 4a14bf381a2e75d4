"""Drift-calibrated benchmark of the channel library; see NOTES.md."""
