"""MAC-layer substrate: CSMA/CA with backoff and acknowledgements."""
