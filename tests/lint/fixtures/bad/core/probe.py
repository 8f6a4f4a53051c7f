"""RL009 fixture: a recovery probe gathered into a per-call reply dict."""


def probe(network, site_id, handler):
    replies = network.broadcast_query(site_id, "probe", "probe-reply", handler)
    return max(replies)
