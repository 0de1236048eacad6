"""D005 fixture: set iteration -> ordered output (pos/neg/suppressed)."""


def bad_list_of_set(items):
    return list(set(items))  # finding: hash order into a list


def bad_join_over_set(items):
    return ",".join(str(x) for x in set(items))  # finding: hash order into a string


def bad_accumulating_loop(items):
    out = []
    for name in {item.name for item in items}:  # finding: hash order accumulated
        out.append(name)
    return out


def bad_dict_filled_in_set_order(items):
    index = {}
    for name in set(items):  # finding: the dict keeps hash order
        index[name] = len(index)
    return index


def ok_sorted(items):
    return sorted(set(items))  # no finding: explicitly sorted


def ok_reduction(items):
    return max(set(items))  # no finding: order-insensitive reduction


def ok_dict_view(mapping):
    return list(mapping.values())  # no finding: insertion order is deterministic


def waived_singleton(item):
    # repro: allow-D005 fixture: a one-element set has one order
    return list({item})
