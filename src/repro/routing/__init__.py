"""Routing substrate: tree construction, flooding setup, failure repair."""
