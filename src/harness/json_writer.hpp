/**
 * @file
 * Minimal JSON object writer for machine-readable bench output.
 *
 * The perf-tracking workflow diffs per-bench throughput records
 * (BENCH_*.json) across commits; this writer covers exactly the flat
 * string/number objects those records need without pulling in a JSON
 * dependency. Numbers are emitted with enough digits to round-trip.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace declust {

/**
 * Ordered JSON object: string, integer, double, number-array or
 * nested-object fields.
 *
 * Scalars and arrays are rendered to their JSON text when set; only a
 * nested object waits for write(), which knows its indentation.
 */
class JsonObject
{
  public:
    JsonObject &
    set(std::string key, std::string value)
    {
        return add(std::move(key), '"' + escaped(value) + '"');
    }

    JsonObject &
    set(std::string key, const char *value)
    {
        return set(std::move(key), std::string(value));
    }

    JsonObject &
    set(std::string key, std::int64_t value)
    {
        return add(std::move(key), std::to_string(value));
    }

    JsonObject &
    set(std::string key, std::uint64_t value)
    {
        return set(std::move(key), static_cast<std::int64_t>(value));
    }

    JsonObject &
    set(std::string key, int value)
    {
        return set(std::move(key), static_cast<std::int64_t>(value));
    }

    JsonObject &
    set(std::string key, double value)
    {
        return add(std::move(key), number(value));
    }

    /** Nest another object under @p key. */
    JsonObject &
    set(std::string key, JsonObject value)
    {
        fields_.push_back(
            {std::move(key), std::string(),
             std::make_shared<const JsonObject>(std::move(value))});
        return *this;
    }

    /** Flat array of numbers under @p key (e.g. per-shard walls). */
    JsonObject &
    set(std::string key, const std::vector<double> &values)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                text += ", ";
            text += number(values[i]);
        }
        return add(std::move(key), std::move(text) + ']');
    }

    /** Serialize as a single pretty-printed object. */
    void
    write(std::ostream &os) const
    {
        writeIndented(os, 0);
        os << '\n';
    }

    std::string
    str() const
    {
        std::ostringstream os;
        write(os);
        return os.str();
    }

  private:
    struct Field
    {
        std::string key;
        std::string text; // rendered JSON value; empty when nested
        std::shared_ptr<const JsonObject> nested;
    };

    JsonObject &
    add(std::string key, std::string text)
    {
        fields_.push_back({std::move(key), std::move(text), nullptr});
        return *this;
    }

    void
    writeIndented(std::ostream &os, int depth) const
    {
        const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
        os << "{\n";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            const Field &f = fields_[i];
            os << pad << "  \"" << escaped(f.key) << "\": ";
            if (f.nested)
                f.nested->writeIndented(os, depth + 1);
            else
                os << f.text;
            if (i + 1 < fields_.size())
                os << ',';
            os << '\n';
        }
        os << pad << "}";
    }

    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default: out += c; break;
            }
        }
        return out;
    }

    /** Enough digits to round-trip a double. */
    static std::string
    number(double value)
    {
        std::ostringstream num;
        num.precision(17);
        num << value;
        return num.str();
    }

    std::vector<Field> fields_;
};

} // namespace declust
