#include "relation.hh"

#include <sstream>

namespace mixedproxy::relation {

Relation
Relation::fromPredicate(std::size_t n,
                        const std::function<bool(EventId, EventId)> &pred)
{
    return fromPredicate<const std::function<bool(EventId, EventId)> &>(
        n, pred);
}

Relation
Relation::filter(const std::function<bool(EventId, EventId)> &pred) const
{
    return filter<const std::function<bool(EventId, EventId)> &>(pred);
}

void
Relation::forEach(const std::function<void(EventId, EventId)> &fn) const
{
    forEach<const std::function<void(EventId, EventId)> &>(fn);
}

bool
Relation::totalOn(const EventSet &s) const
{
    if (s.universeSize() != n)
        panic("Relation::totalOn: universe mismatch");
    auto ids = s.members();
    for (std::size_t i = 0; i < ids.size(); i++) {
        for (std::size_t j = i + 1; j < ids.size(); j++) {
            if (!contains(ids[i], ids[j]) && !contains(ids[j], ids[i]))
                return false;
        }
    }
    return true;
}

std::optional<std::vector<EventId>>
Relation::findPath(EventId a, EventId b) const
{
    checkId(a);
    checkId(b);
    // BFS, recording parents.
    std::vector<EventId> parent(n, n);
    std::vector<EventId> queue;
    std::vector<bool> seen(n, false);
    queue.push_back(a);
    seen[a] = true;
    for (std::size_t head = 0; head < queue.size(); head++) {
        EventId cur = queue[head];
        for (EventId next = 0; next < n; next++) {
            if (!contains(cur, next) || seen[next])
                continue;
            parent[next] = cur;
            if (next == b) {
                std::vector<EventId> path;
                for (EventId v = parent[b]; v != a && v != n;
                     v = parent[v]) {
                    path.push_back(v);
                }
                std::reverse(path.begin(), path.end());
                return path;
            }
            seen[next] = true;
            queue.push_back(next);
        }
    }
    return std::nullopt;
}

std::string
Relation::toString() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    forEach([&](EventId a, EventId b) {
        if (!first)
            os << ", ";
        first = false;
        os << "(" << a << "," << b << ")";
    });
    os << "}";
    return os.str();
}

} // namespace mixedproxy::relation
