#include "event_set.hh"

#include <sstream>

namespace mixedproxy::relation {

void
EventSet::forEach(const std::function<void(EventId)> &fn) const
{
    forEach<const std::function<void(EventId)> &>(fn);
}

EventSet
EventSet::filter(const std::function<bool(EventId)> &pred) const
{
    return filter<const std::function<bool(EventId)> &>(pred);
}

std::string
EventSet::toString() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    forEach([&](EventId id) {
        if (!first)
            os << ", ";
        first = false;
        os << id;
    });
    os << "}";
    return os.str();
}

} // namespace mixedproxy::relation
