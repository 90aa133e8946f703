#ifndef DAVIX_HTTPD_OBJECT_STORE_H_
#define DAVIX_HTTPD_OBJECT_STORE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace davix {
namespace httpd {

/// An immutable stored object. Returned by reference-counted pointer so
/// request handlers can serve reads without holding the store lock.
struct StoredObject {
  std::string data;
  int64_t mtime_epoch_seconds = 0;
  std::string etag;
};

/// Metadata-only view of an object or collection.
struct ObjectMeta {
  uint64_t size = 0;
  int64_t mtime_epoch_seconds = 0;
  std::string etag;
  bool is_collection = false;
};

/// In-memory object store backing the embedded HTTP server: the "Disk
/// Pool Manager storage system" of the paper's test setup, reduced to
/// its protocol-visible essentials (a flat namespace of immutable blobs
/// plus WebDAV-style collections).
///
/// Thread-safe: yes — one internal mutex serialises all operations;
/// objects are immutable, so Get hands out shared pointers that outlive
/// the lock.
class ObjectStore {
 public:
  ObjectStore() = default;

  /// Stores (or replaces) the object at `path`. Returns true if the
  /// object already existed (HTTP 204 vs 201 semantics).
  bool Put(std::string_view path, std::string data);

  /// Fetches the object; kNotFound when absent.
  Result<std::shared_ptr<const StoredObject>> Get(std::string_view path) const;

  /// Removes an object or an (empty or not) collection rooted at `path`.
  Status Delete(std::string_view path);

  /// Object or collection metadata.
  Result<ObjectMeta> Stat(std::string_view path) const;

  /// Creates a collection; kInvalidArgument if something exists there.
  Status MakeCollection(std::string_view path);

  /// Renames an object. kNotFound when `from` is absent.
  Status Move(std::string_view from, std::string_view to);

  /// Server-side copy (objects are immutable, so this is O(1) sharing).
  Status Copy(std::string_view from, std::string_view to);

  /// Immediate children of collection `path` (names, not full paths).
  Result<std::vector<std::string>> ListChildren(std::string_view path) const;

  /// Number of stored objects (collections excluded).
  size_t ObjectCount() const;

  /// Sum of stored object sizes in bytes.
  uint64_t TotalBytes() const;

  /// Canonical key of `path`: one leading slash, no trailing slash
  /// ("dir/" and "/dir" both name "/dir").
  static std::string Normalize(std::string_view path);

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const StoredObject>>
      objects_ GUARDED_BY(mu_);
  std::set<std::string> collections_ GUARDED_BY(mu_);
  uint64_t etag_counter_ GUARDED_BY(mu_) = 0;
};

}  // namespace httpd
}  // namespace davix

#endif  // DAVIX_HTTPD_OBJECT_STORE_H_
