#include "condsel/sit/sit.h"

#include "condsel/catalog/catalog.h"

namespace condsel {

bool SitSpec::References(TableId t) const {
  for (const Predicate& p : expression) {
    for (const ColumnRef& c : p.attrs()) {
      if (c.table == t) return true;
    }
  }
  return false;
}

std::string Sit::ToString(const Catalog& catalog) const {
  const TableSchema& schema = catalog.table(attr.table).schema();
  std::string s = "SIT(" + schema.name + "." +
                  schema.columns[static_cast<size_t>(attr.column)].name;
  if (is_multidim()) {
    const TableSchema& schema2 = catalog.table(attr2.table).schema();
    s += ", " + schema2.name + "." +
         schema2.columns[static_cast<size_t>(attr2.column)].name;
  }
  if (!expression.empty()) {
    s += " | ";
    for (size_t i = 0; i < expression.size(); ++i) {
      if (i > 0) s += ", ";
      s += expression[i].ToString(catalog);
    }
  }
  s += ")";
  return s;
}

}  // namespace condsel
