"""Baseline power-management protocols the paper compares against."""
