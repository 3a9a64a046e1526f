"""HTTP substrate: messages, range algebra, origin servers, relay proxies."""
