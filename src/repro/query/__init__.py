"""Query-service substrate: periodic queries with in-network aggregation."""
