"""Network substrate: nodes, links, capacity processes, topology, routes."""
