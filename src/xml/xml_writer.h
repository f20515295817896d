#ifndef PISREP_XML_XML_WRITER_H_
#define PISREP_XML_XML_WRITER_H_

#include <string>
#include <string_view>

#include "xml/xml_node.h"

namespace pisrep::xml {

/// Serialization options.
struct WriteOptions {
  /// Pretty-print with two-space indentation and newlines; compact otherwise.
  bool pretty = false;
  /// Emit an `<?xml version="1.0"?>` declaration first.
  bool declaration = false;
};

/// Serializes the tree rooted at `node`.
std::string WriteXml(const XmlNode& node, const WriteOptions& options = {});

}  // namespace pisrep::xml

#endif  // PISREP_XML_XML_WRITER_H_
