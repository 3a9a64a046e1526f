"""Transport substrate: TCP models, max-min fairness, fluid flow engine."""
