#include "relation.hh"

namespace mixedproxy::relation {

// The relational algebra lives in the header as BasicRelation<Storage>;
// the two shipped storage policies are instantiated once, here, so
// every other translation unit links against these definitions instead
// of re-instantiating the template.
template class BasicRelation<DenseStorage>;
template class BasicRelation<WindowedStorage>;

} // namespace mixedproxy::relation
