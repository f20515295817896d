#include "xml/xml_writer.h"

namespace pisrep::xml {

namespace {

void AppendEscaped(std::string_view text, bool attribute, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '&':
        *out += "&amp;";
        break;
      case '<':
        *out += "&lt;";
        break;
      case '>':
        *out += "&gt;";
        break;
      case '"':
        if (attribute) {
          *out += "&quot;";
        } else {
          out->push_back(c);
        }
        break;
      default:
        out->push_back(c);
    }
  }
}

void WriteNode(const XmlNode& node, const WriteOptions& options, int depth,
               std::string* out) {
  auto indent = [&](int d) {
    if (options.pretty) out->append(static_cast<std::size_t>(d) * 2, ' ');
  };
  auto newline = [&] {
    if (options.pretty) out->push_back('\n');
  };

  indent(depth);
  *out += "<";
  *out += node.name();
  for (const auto& [key, value] : node.attributes()) {
    *out += " ";
    *out += key;
    *out += "=\"";
    AppendEscaped(value, /*attribute=*/true, out);
    *out += "\"";
  }

  if (node.text().empty() && node.children().empty()) {
    *out += "/>";
    newline();
    return;
  }

  *out += ">";
  if (!node.text().empty()) {
    AppendEscaped(node.text(), /*attribute=*/false, out);
  }
  if (!node.children().empty()) {
    newline();
    for (const XmlNode& child : node.children()) {
      WriteNode(child, options, depth + 1, out);
    }
    indent(depth);
  }
  *out += "</";
  *out += node.name();
  *out += ">";
  newline();
}

}  // namespace

std::string WriteXml(const XmlNode& node, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if (options.pretty) out += "\n";
  }
  WriteNode(node, options, 0, &out);
  return out;
}

}  // namespace pisrep::xml
