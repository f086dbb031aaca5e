"""Experiment harness: scenario configs, metrics, runner, figure reproduction."""
